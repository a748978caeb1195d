//! Panic containment: a query that panics mid-execution answers its session
//! with a typed `exec` error, and both the session thread and the execution
//! slot it held survive to serve the next request.
//!
//! The request path is panic-free by lint rule `no-panic-on-request-path`,
//! so the panic is injected via the `server::worker::execute` fail point
//! (`smoke_core::failpoint`). Fail points are process-global one-shots,
//! which is why this test lives in its own integration-test binary: no
//! other test's query can consume the armed point.

use std::sync::Arc;
use std::time::Duration;

use smoke_core::failpoint;
use smoke_planner::wire::QuerySpec;
use smoke_planner::Strategy;
use smoke_server::{demo_snapshot, Client, ErrorCode, Reply, Server, ServerConfig};

#[test]
fn panicking_job_answers_exec_error_and_the_worker_survives() {
    let snapshot = Arc::new(demo_snapshot(1_000, 20, 21).expect("demo snapshot"));
    // One slot: if the panic leaked it, no later query could ever answer.
    let config = ServerConfig {
        workers: 1,
        queue_depth: 8,
        cache_capacity: 16,
    };
    let handle = Server::serve(Arc::clone(&snapshot), "127.0.0.1:0", config).expect("bind");
    let mut client = Client::connect(handle.addr()).expect("connect");
    client
        .set_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");

    // A forced-strategy query, armed to panic mid-execution.
    failpoint::arm("server::worker::execute");
    let spec = QuerySpec::backward().rids([0]).force(Strategy::EagerTrace);
    let reply = client.query("by_z", spec.clone()).expect("exchange");
    match reply {
        Reply::Error { code, message } => {
            assert_eq!(code, ErrorCode::Exec);
            assert!(
                message.contains("panicked (contained)"),
                "unexpected message: {message}"
            );
            assert!(message.contains("server::worker::execute"), "{message}");
        }
        other => panic!("expected a contained exec error, got {other:?}"),
    }
    assert_eq!(handle.stats().in_flight, 0, "the slot was released");

    // The fail point is one-shot; the same session must now answer the same
    // query correctly through the same slot, and the reference path must
    // agree.
    let expected = snapshot.execute("by_z", &spec).expect("reference");
    let got = client
        .query("by_z", spec)
        .expect("exchange after panic")
        .into_result()
        .expect("query result after panic");
    assert_eq!(got.rids, expected.rids);
    assert_eq!(got.rows, expected.rows);

    // A few more queries through the single slot for good measure.
    for rid in [1u32, 2, 3] {
        let spec = QuerySpec::backward().rids([rid]);
        let got = client
            .query("by_z", spec.clone())
            .expect("exchange")
            .into_result()
            .expect("query result");
        let expected = snapshot.execute("by_z", &spec).expect("reference");
        assert_eq!(got.rids, expected.rids, "rid {rid}");
    }

    let stats = handle.shutdown();
    assert_eq!(
        stats.errors, 1,
        "exactly the contained panic counts as an error"
    );
    assert!(stats.served >= 4);
    assert_eq!(stats.in_flight, 0, "the panicked job was accounted for");
}
