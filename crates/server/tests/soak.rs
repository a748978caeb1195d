//! The soak harness: concurrent clients against one server, with every
//! response checked rid-for-rid against the sequential planner, plus an
//! overload scenario proving admission control sheds instead of hanging.
//!
//! CI runs this test as a *blocking* step (`cargo test -p smoke-server
//! --test soak`): it is the executable claim that concurrency never changes
//! an answer.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use smoke_planner::wire::QuerySpec;
use smoke_server::{demo_snapshot, Client, QueryMix, Reply, Server, ServerConfig};

const CLIENTS: usize = 8;
const QUERIES_PER_CLIENT: usize = 60;

/// N concurrent clients issue the zipf-skewed interactive mix; every reply
/// must match the single-threaded reference path exactly (strategy, rids,
/// and rows), cache hits included.
#[test]
fn concurrent_responses_match_the_sequential_planner() {
    let rows = 4_000;
    let groups = 50;
    let snapshot = Arc::new(demo_snapshot(rows, groups, 21).expect("demo snapshot"));
    let n_groups = snapshot.view("by_z").expect("view").output().len();
    let handle = Server::serve(
        Arc::clone(&snapshot),
        "127.0.0.1:0",
        ServerConfig {
            workers: 4,
            queue_depth: 32,
            cache_capacity: 64,
        },
    )
    .expect("bind");
    let addr = handle.addr();

    let checked = Arc::new(AtomicU64::new(0));
    let threads: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let snapshot = Arc::clone(&snapshot);
            let checked = Arc::clone(&checked);
            std::thread::spawn(move || {
                let mut mix = QueryMix::new(n_groups, rows, 100 + c as u64);
                let mut client = Client::connect(addr).expect("connect");
                client
                    .set_timeout(Some(Duration::from_secs(30)))
                    .expect("timeout");
                for _ in 0..QUERIES_PER_CLIENT {
                    let (view, spec) = mix.next_query();
                    let expected = snapshot.execute(view, &spec).expect("reference path");
                    match client.query(view, spec.clone()).expect("exchange") {
                        Reply::Result(got) => {
                            assert_eq!(got.strategy, expected.strategy, "strategy of {spec:?}");
                            assert_eq!(got.rids, expected.rids, "rids of {spec:?}");
                            assert_eq!(got.rows, expected.rows, "rows of {spec:?}");
                            checked.fetch_add(1, Ordering::Relaxed);
                        }
                        Reply::Busy(_) => {
                            // Admission control may shed under this load;
                            // shedding is a legal answer, silence is not.
                        }
                        other => panic!("unexpected reply: {other:?}"),
                    }
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("client thread");
    }

    let total = (CLIENTS * QUERIES_PER_CLIENT) as u64;
    let ok = checked.load(Ordering::Relaxed);
    let stats = handle.shutdown();
    assert_eq!(
        ok + stats.shed,
        total,
        "every request was answered: {stats:?}"
    );
    // The queue is deep relative to this load; the vast majority must have
    // been served, and the skewed mix must have produced real cache hits.
    assert!(ok * 10 >= total * 9, "served {ok}/{total} ({stats:?})");
    assert!(
        stats.cache_hits > 0,
        "skewed mix never hit the cache: {stats:?}"
    );
}

/// Overload: one worker, a depth-1 queue, and slow (50ms) jobs from many
/// concurrent clients. Admission control must shed with `server_busy` —
/// quickly — rather than queueing unboundedly or hanging, and every
/// admitted request must still be answered correctly.
#[test]
fn overload_sheds_instead_of_hanging() {
    let snapshot = Arc::new(demo_snapshot(1_000, 20, 21).expect("demo snapshot"));
    let handle = Server::serve(
        Arc::clone(&snapshot),
        "127.0.0.1:0",
        ServerConfig {
            workers: 1,
            queue_depth: 1,
            cache_capacity: 0, // no cache: every request must be admitted
        },
    )
    .expect("bind");
    let addr = handle.addr();

    let spec = QuerySpec::backward().rids([0]);
    let expected = snapshot.execute("by_z", &spec).expect("reference");
    let busy = Arc::new(AtomicU64::new(0));
    let served = Arc::new(AtomicU64::new(0));
    let start = Instant::now();
    let threads: Vec<_> = (0..6)
        .map(|_| {
            let spec = spec.clone();
            let expected_rids = expected.rids.clone();
            let busy = Arc::clone(&busy);
            let served = Arc::clone(&served);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                client
                    .set_timeout(Some(Duration::from_secs(30)))
                    .expect("timeout");
                for _ in 0..5 {
                    match client
                        .query_with_sleep("by_z", spec.clone(), 50)
                        .expect("exchange")
                    {
                        Reply::Result(got) => {
                            assert_eq!(got.rids, expected_rids);
                            served.fetch_add(1, Ordering::Relaxed);
                        }
                        Reply::Busy(_) => {
                            busy.fetch_add(1, Ordering::Relaxed);
                        }
                        other => panic!("unexpected reply: {other:?}"),
                    }
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("client thread");
    }
    let elapsed = start.elapsed();
    let stats = handle.shutdown();

    // 6 clients × 5 requests against one worker and a depth-1 queue: most
    // requests MUST be shed, and a shed reply is immediate — the run cannot
    // take anywhere near 30 × 50ms of serialized work.
    assert!(
        busy.load(Ordering::Relaxed) > 0,
        "nothing was shed: {stats:?}"
    );
    assert!(
        served.load(Ordering::Relaxed) > 0,
        "nothing was served: {stats:?}"
    );
    assert_eq!(
        served.load(Ordering::Relaxed),
        stats.served,
        "served counts agree"
    );
    assert_eq!(
        busy.load(Ordering::Relaxed),
        stats.shed,
        "shed counts agree"
    );
    assert!(
        elapsed < Duration::from_secs(10),
        "overload must shed fast, took {elapsed:?}"
    );
}

/// Concurrency cap: two slots, room for eight to wait, six clients each
/// sending one 100ms query with the cache off. Nobody is shed, and the six
/// run as three waves of two — neither all at once nor one at a time.
#[test]
fn at_most_workers_queries_execute_at_once() {
    let snapshot = Arc::new(demo_snapshot(1_000, 20, 21).expect("demo snapshot"));
    let handle = Server::serve(
        Arc::clone(&snapshot),
        "127.0.0.1:0",
        ServerConfig {
            workers: 2,
            queue_depth: 8,
            cache_capacity: 0,
        },
    )
    .expect("bind");
    let addr = handle.addr();

    let spec = QuerySpec::backward().rids([0]);
    let expected = snapshot.execute("by_z", &spec).expect("reference");
    let start = Instant::now();
    let threads: Vec<_> = (0..6)
        .map(|_| {
            let spec = spec.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                client
                    .set_timeout(Some(Duration::from_secs(30)))
                    .expect("timeout");
                client
                    .query_with_sleep("by_z", spec, 100)
                    .expect("exchange")
            })
        })
        .collect();
    for t in threads {
        match t.join().expect("client thread") {
            Reply::Result(got) => assert_eq!(got.rids, expected.rids),
            other => panic!("expected a result, got {other:?}"),
        }
    }
    let elapsed = start.elapsed();
    let stats = handle.shutdown();

    assert_eq!((stats.served, stats.shed), (6, 0), "{stats:?}");
    assert!(
        elapsed >= Duration::from_millis(300),
        "more than two ran at once: {elapsed:?}"
    );
    assert!(
        elapsed < Duration::from_millis(500),
        "the slots did not run in parallel: {elapsed:?}"
    );
}
