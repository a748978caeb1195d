//! A reply too long for one frame is a typed `exec` error, never a cached
//! body the session cannot send: it is not cached, it counts as an error,
//! and the session that asked keeps serving.

use std::sync::Arc;
use std::time::Duration;

use smoke_core::ops::groupby::{group_by, GroupByOptions};
use smoke_core::AggExpr;
use smoke_planner::json::Json;
use smoke_planner::wire::QuerySpec;
use smoke_server::{
    Client, ErrorCode, Reply, Server, ServerConfig, Snapshot, View, MAX_FRAME_BYTES,
};
use smoke_storage::{Column, DataType, Field, Relation, Schema};

/// Rows of the one-group view. Its full backward trace is every rid, about
/// 19 MB of JSON: past the 16 MiB frame cap.
const ROWS: usize = 2_500_000;

fn one_group_snapshot() -> Snapshot {
    let schema = Schema::new(vec![Field::new("g", DataType::Int)]).expect("schema");
    let table =
        Relation::from_columns("t", schema, vec![Column::Int(vec![0; ROWS])]).expect("table");
    let out = group_by(
        &table,
        &["g".to_string()],
        &[AggExpr::count("cnt")],
        &GroupByOptions::inject(),
    )
    .expect("capture");
    let view = View::new(table, out.output.clone())
        .lineage(out.lineage.input(0))
        .stats(out.stats);
    Snapshot::new().with_view("one", view)
}

#[test]
fn an_unframeable_reply_is_an_uncached_exec_error() {
    let snapshot = Arc::new(one_group_snapshot());
    let handle = Server::serve(snapshot, "127.0.0.1:0", ServerConfig::default()).expect("bind");
    let mut client = Client::connect(handle.addr()).expect("connect");
    client
        .set_timeout(Some(Duration::from_secs(60)))
        .expect("timeout");

    // Twice: a cached body would make the second ask a hit.
    let everything = QuerySpec::backward().rids([0]);
    for attempt in 0..2 {
        match client
            .query("one", everything.clone())
            .expect("a reply, not a closed session")
        {
            Reply::Error {
                code: ErrorCode::Exec,
                message,
            } => assert!(
                message.contains(&format!("{MAX_FRAME_BYTES}-byte frame cap")),
                "{message}"
            ),
            Reply::Result(r) => panic!("attempt {attempt}: {} rids fit a frame", r.rids.len()),
            other => panic!("attempt {attempt}: expected an exec error, got {other:?}"),
        }
    }
    let Reply::Stats(stats) = client.stats().expect("stats") else {
        panic!("stats request did not answer with stats");
    };
    assert_eq!(stats.get("cache_entries").and_then(Json::as_i64), Some(0));
    assert_eq!(stats.get("cache_hits").and_then(Json::as_i64), Some(0));

    // The same connection still answers a small query.
    let small = client
        .query("one", QuerySpec::forward().rids([7, 3]))
        .expect("exchange")
        .into_result()
        .expect("small result");
    assert_eq!(small.rids, vec![0]);

    let stats = handle.shutdown();
    assert_eq!(stats.errors, 2);
    assert_eq!(stats.served, 2, "the stats request and the small query");
}
