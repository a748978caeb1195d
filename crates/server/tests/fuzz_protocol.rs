//! Fuzz-ish protocol hardening: random byte frames, mutated request bodies,
//! truncated and oversized length prefixes. The decode path must answer
//! every one with a typed error (`bad_request`) or a clean connection close
//! — never a panic, never a hang. Deterministically seeded so failures
//! reproduce.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use smoke_core::Expr;
use smoke_planner::json::MAX_DEPTH;
use smoke_planner::wire::QuerySpec;
use smoke_server::{demo_snapshot, Client, Request, Server, ServerConfig, ServerHandle};

const ROUNDS: usize = 400;

/// Random printable-ASCII garbage (always valid UTF-8, often JSON-ish
/// because braces/quotes/colons are overweighted).
fn ascii_garbage(rng: &mut StdRng, max_len: usize) -> String {
    let len = rng.gen_range(0..max_len + 1);
    let jsonish = br#"{}[]\":,truefalsenull0123456789.-"#;
    (0..len)
        .map(|_| {
            if rng.gen_bool(0.5) {
                jsonish[rng.gen_range(0..jsonish.len())] as char
            } else {
                rng.gen_range(0x20u8..0x7f) as char
            }
        })
        .collect()
}

/// A pool of valid request bodies to mutate.
fn valid_bodies() -> Vec<String> {
    vec![
        Request::Stats.encode(),
        Request::Query {
            view: "by_z".into(),
            spec: QuerySpec::backward().rids([4, 2, 0]),
            sleep_ms: 0,
        }
        .encode(),
        Request::Explain {
            view: "by_bin".into(),
            spec: QuerySpec::multi_view().rids([1]).then_through("by_bin"),
        }
        .encode(),
    ]
}

/// Truncations, byte flips, and splices of valid bodies — the mutations a
/// broken client or proxy actually produces.
fn mutate(rng: &mut StdRng, body: &str) -> String {
    let mut bytes = body.as_bytes().to_vec();
    match rng.gen_range(0..3) {
        0 => {
            let at = rng.gen_range(0..bytes.len() + 1);
            bytes.truncate(at);
        }
        1 => {
            if !bytes.is_empty() {
                let at = rng.gen_range(0..bytes.len());
                bytes[at] = rng.gen_range(0x20..0x7f);
            }
        }
        _ => {
            let at = rng.gen_range(0..bytes.len() + 1);
            let insert = ascii_garbage(rng, 8);
            bytes.splice(at..at, insert.bytes());
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Direct decode fuzz: `Request::decode` (which drags `QuerySpec::from_json`
/// and the JSON parser along) returns `Ok` or a typed `Err` on every input.
/// A panic anywhere in the decode stack fails the test.
#[test]
fn request_decode_never_panics_on_garbage() {
    let mut rng = StdRng::seed_from_u64(0xF422);
    let bodies = valid_bodies();
    for round in 0..ROUNDS {
        let input = if round % 2 == 0 {
            ascii_garbage(&mut rng, 96)
        } else {
            let base = &bodies[round % bodies.len()];
            mutate(&mut rng, base)
        };
        // Err is expected for almost all inputs; Ok is fine (a mutation can
        // leave a valid request). Only a panic can fail this test.
        let _ = Request::decode(&input);
    }
}

fn start_server() -> ServerHandle {
    let snapshot = Arc::new(demo_snapshot(500, 10, 21).expect("demo snapshot"));
    let config = ServerConfig {
        workers: 2,
        queue_depth: 8,
        cache_capacity: 16,
    };
    Server::serve(snapshot, "127.0.0.1:0", config).expect("bind")
}

fn raw_conn(handle: &ServerHandle) -> TcpStream {
    let stream = TcpStream::connect(handle.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    stream
}

/// Reads one length-prefixed frame off a raw socket; `None` on close.
fn read_raw_frame(stream: &mut TcpStream) -> Option<String> {
    let mut len_buf = [0u8; 4];
    stream.read_exact(&mut len_buf).ok()?;
    let len = u32::from_be_bytes(len_buf) as usize;
    let mut body = vec![0u8; len];
    stream.read_exact(&mut body).ok()?;
    Some(String::from_utf8_lossy(&body).into_owned())
}

fn send_frame(stream: &mut TcpStream, body: &[u8]) -> std::io::Result<()> {
    stream.write_all(&(body.len() as u32).to_be_bytes())?;
    stream.write_all(body)?;
    stream.flush()
}

/// A live server answers every well-framed garbage body with a typed
/// `bad_request` error on the same connection, and closes the connection on
/// frames it cannot even read (bad UTF-8, oversized announcements,
/// truncated prefixes) — then keeps serving everyone else.
#[test]
fn live_server_survives_random_frames_and_framing_attacks() {
    let handle = start_server();
    let mut rng = StdRng::seed_from_u64(0xBEEF);
    let bodies = valid_bodies();

    // Well-framed garbage bodies: every one gets a bad_request reply (or,
    // for mutations that stay valid, an ok/typed-error reply) — the session
    // must never just die mid-frame.
    let mut stream = raw_conn(&handle);
    for round in 0..60 {
        let body = if round % 2 == 0 {
            ascii_garbage(&mut rng, 64)
        } else {
            mutate(&mut rng, &bodies[round % bodies.len()])
        };
        send_frame(&mut stream, body.as_bytes()).expect("send garbage frame");
        let reply = read_raw_frame(&mut stream).unwrap_or_else(|| {
            panic!("server closed the session on a well-formed frame: {body:?}")
        });
        assert!(
            reply.contains("\"status\""),
            "reply is not a protocol response: {reply}"
        );
    }
    drop(stream);

    // Non-UTF-8 body: read_frame rejects it; the connection closes cleanly.
    let mut stream = raw_conn(&handle);
    send_frame(&mut stream, &[0xff, 0xfe, 0x80, 0x00, 0x41]).expect("send non-utf8");
    assert!(
        read_raw_frame(&mut stream).is_none(),
        "non-UTF-8 frames should close the connection"
    );

    // Oversized length announcement: dropped without allocating the body.
    let mut stream = raw_conn(&handle);
    stream
        .write_all(&u32::MAX.to_be_bytes())
        .expect("send oversized prefix");
    stream.flush().expect("flush");
    assert!(
        read_raw_frame(&mut stream).is_none(),
        "oversized announcements should close the connection"
    );

    // Truncated length prefix: write two bytes and shut the write half.
    let mut stream = raw_conn(&handle);
    stream
        .write_all(&[0x00, 0x00])
        .expect("send partial prefix");
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("shutdown write half");
    assert!(
        read_raw_frame(&mut stream).is_none(),
        "truncated prefixes should close the connection"
    );

    // The server is still healthy: a real client gets a real answer.
    let mut client = Client::connect(handle.addr()).expect("connect");
    client
        .set_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let result = client
        .query("by_z", QuerySpec::backward().rids([0]))
        .expect("exchange")
        .into_result()
        .expect("query result after fuzzing");
    assert!(!result.rids.is_empty());

    let stats = handle.shutdown();
    assert!(stats.served >= 1, "the post-fuzz query was served");
    assert_eq!(stats.in_flight, 0);
}

/// How deep `{` / `[` nest in a request body (no body here has a bracket
/// inside a string).
fn nesting(body: &str) -> usize {
    let mut depth = 0usize;
    let mut deepest = 0;
    for b in body.bytes() {
        match b {
            b'{' | b'[' => {
                depth += 1;
                deepest = deepest.max(depth);
            }
            b'}' | b']' => depth -= 1,
            _ => {}
        }
    }
    deepest
}

fn query_request(spec: QuerySpec) -> Request {
    Request::Query {
        view: "by_z".into(),
        spec,
        sleep_ms: 0,
    }
}

/// Nesting is capped in the parser: a 100 000-`[` frame (a stack overflow,
/// and so a process abort, for an unbounded recursive parser) is a typed
/// `bad_request`. The deepest request the cap admits, and a 200-term
/// conjunction, still decode, key, execute and answer on a session thread.
#[test]
fn deep_nesting_is_a_bad_request_not_a_crash() {
    let handle = start_server();
    let mut stream = raw_conn(&handle);
    send_frame(&mut stream, "[".repeat(100_000).as_bytes()).expect("send deep frame");
    let reply = read_raw_frame(&mut stream).expect("a reply to the deep frame");
    assert!(reply.contains("\"bad_request\""), "{reply}");
    assert!(reply.contains("nesting"), "{reply}");
    drop(stream);

    let mut client = Client::connect(handle.addr()).expect("connect");
    client
        .set_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    let plain = QuerySpec::backward().rids([0, 1]);
    let expected = client
        .query("by_z", plain.clone())
        .expect("exchange")
        .into_result()
        .expect("plain result");

    // 200 always-true terms, left-nested: two JSON levels per `and`.
    let conjunction = (1..200).fold(Expr::col("v_bin").lt(Expr::lit(1_000)), |acc, i| {
        acc.and(Expr::col("v_bin").lt(Expr::lit(1_000 + i)))
    });
    let spec = plain.clone().filter(conjunction);
    assert!(nesting(&query_request(spec.clone()).encode()) > 400);
    let got = client
        .query("by_z", spec)
        .expect("exchange")
        .into_result()
        .expect("200-term conjunction result");
    assert_eq!(got.rids, expected.rids);

    // A `not` chain that nests exactly as deep as the cap admits.
    let mut nots = MAX_DEPTH;
    let deepest = loop {
        let filter = (0..nots).fold(Expr::col("v_bin").lt(Expr::lit(1_000)), |e, _| e.not());
        let spec = plain.clone().filter(filter);
        if nesting(&query_request(spec.clone()).encode()) <= MAX_DEPTH {
            break spec;
        }
        nots -= 1;
    };
    assert_eq!(nesting(&query_request(deepest.clone()).encode()), MAX_DEPTH);
    client
        .query("by_z", deepest)
        .expect("exchange")
        .into_result()
        .expect("deepest admitted request result");

    let stats = handle.shutdown();
    assert_eq!(stats.in_flight, 0);
}

/// The widest reply of the demo snapshot — a hot group's full backward
/// trace — reads back through `Client` rid for rid as `Snapshot::execute`
/// answers it in process, on the miss and on the cache hit.
#[test]
fn a_wide_result_round_trips_rid_for_rid() {
    let snapshot = Arc::new(demo_snapshot(50_000, 10, 21).expect("demo snapshot"));
    let widest = (0..10)
        .map(|g| QuerySpec::backward().rids([g]))
        .max_by_key(|spec| snapshot.execute("by_z", spec).map_or(0, |r| r.rids.len()))
        .expect("ten groups");
    let expected = snapshot.execute("by_z", &widest).expect("in-process trace");
    assert!(expected.rids.len() > 10_000, "{} rids", expected.rids.len());

    let handle = Server::serve(
        Arc::clone(&snapshot),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .expect("bind");
    let mut client = Client::connect(handle.addr()).expect("connect");
    client
        .set_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    for _ in 0..2 {
        let got = client
            .query("by_z", widest.clone())
            .expect("exchange")
            .into_result()
            .expect("wide result");
        assert_eq!(got.strategy, expected.strategy);
        assert_eq!(got.rids, expected.rids);
        assert_eq!(got.rows, expected.rows);
    }
    let stats = handle.shutdown();
    assert_eq!((stats.cache_misses, stats.cache_hits), (1, 1));
}
