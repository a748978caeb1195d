//! Graceful shutdown: in-flight sessions drain — an admitted request is
//! always answered — while new work is refused with `shutting_down`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use smoke_planner::wire::QuerySpec;
use smoke_server::{demo_snapshot, Client, Reply, Server, ServerConfig};

/// A request executing when shutdown begins, and a second one still waiting
/// for the only execution slot, both get their (correct) answers; shutdown
/// waits for them instead of dropping them.
#[test]
fn shutdown_drains_in_flight_requests() {
    let snapshot = Arc::new(demo_snapshot(1_000, 20, 21).expect("demo snapshot"));
    let config = ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    };
    let handle = Server::serve(Arc::clone(&snapshot), "127.0.0.1:0", config).expect("bind");
    let addr = handle.addr();
    let request = |spec: QuerySpec, sleep_ms: u64| {
        std::thread::spawn(move || {
            let mut client = Client::connect(addr).expect("connect");
            client
                .set_timeout(Some(Duration::from_secs(30)))
                .expect("timeout");
            client
                .query_with_sleep("by_z", spec, sleep_ms)
                .expect("exchange")
        })
    };
    let wait_for_in_flight = |n: u64| {
        let deadline = Instant::now() + Duration::from_secs(5);
        while handle.stats().in_flight < n {
            assert!(Instant::now() < deadline, "{:?}", handle.stats());
            std::thread::sleep(Duration::from_millis(5));
        }
    };

    // A slow request (sleeps 300ms in the only slot) issued just before
    // shutdown, then a second one that has to wait for that slot.
    let slow_spec = QuerySpec::backward().rids([0]);
    let waiting_spec = QuerySpec::backward().rids([1]);
    let slow = request(slow_spec.clone(), 300);
    wait_for_in_flight(1);
    let waiting = request(waiting_spec.clone(), 0);
    wait_for_in_flight(2);

    let start = Instant::now();
    let stats = handle.shutdown();
    // Shutdown blocked on the draining requests (one still sleeping, one
    // not yet started when it began) rather than returning instantly.
    assert!(stats.in_flight == 0, "drained: {stats:?}");

    for (thread, spec) in [(slow, slow_spec), (waiting, waiting_spec)] {
        let expected = snapshot.execute("by_z", &spec).expect("reference");
        match thread.join().expect("client thread") {
            Reply::Result(result) => assert_eq!(result.rids, expected.rids),
            other => panic!("in-flight request was dropped: {other:?}"),
        }
    }
    // Sanity: the whole drain stayed bounded (no hang).
    assert!(start.elapsed() < Duration::from_secs(10));
}

/// After shutdown completes the port stops accepting connections.
#[test]
fn shutdown_releases_the_port() {
    let snapshot = Arc::new(demo_snapshot(500, 10, 21).expect("demo snapshot"));
    let handle = Server::serve(snapshot, "127.0.0.1:0", ServerConfig::default()).expect("bind");
    let addr = handle.addr();
    handle.shutdown();
    // The accept thread is gone; a fresh connection either fails outright or
    // is never answered.
    if let Ok(mut client) = Client::connect(addr) {
        client
            .set_timeout(Some(Duration::from_millis(300)))
            .expect("timeout");
        assert!(client
            .query("by_z", QuerySpec::backward().rids([0]))
            .is_err());
    }
}
