//! The wire protocol: length-prefixed JSON frames over TCP.
//!
//! Every message — request or response — is one frame: a 4-byte big-endian
//! length followed by that many bytes of UTF-8 JSON. Length-prefixing keeps
//! the parser trivial (no streaming JSON), bounds memory per frame
//! ([`MAX_FRAME_BYTES`]), and makes request pipelining possible for clients
//! that want it.
//!
//! Requests (one JSON object each):
//!
//! ```text
//! {"type":"query",   "view":"by_z", "query":<QuerySpec>, "sleep_ms":0}
//! {"type":"explain", "view":"by_z", "query":<QuerySpec>}
//! {"type":"stats"}
//! ```
//!
//! `sleep_ms` (optional, default 0) delays execution while the query holds
//! its slot; it exists for soak/shutdown testing (deterministically
//! saturating the execution slots) and is not part of the cache key.
//!
//! Responses:
//!
//! ```text
//! {"status":"ok", "result":<LineageResult>}     // query
//! {"status":"ok", "explain":<Explain>}          // explain
//! {"status":"ok", "stats":{...}}                // stats
//! {"status":"error", "code":"server_busy", "message":"..."}
//! ```
//!
//! Error codes are typed ([`ErrorCode`]); `server_busy` is the admission
//! controller's load-shed signal and the only code clients are expected to
//! retry on.

use std::io::{self, IoSlice, Read, Write};
use std::sync::Arc;
use std::time::{Duration, Instant};

use smoke_core::{EngineError, Result};
use smoke_planner::json::{parse, Json};
use smoke_planner::wire::{write_result, QuerySpec};
use smoke_planner::LineageResult;

/// Upper bound on a single frame's payload (16 MiB). A peer announcing more
/// is malformed (or hostile) and its connection is dropped.
pub const MAX_FRAME_BYTES: usize = 16 << 20;

/// How long a frame may stay partially read before the peer is declared
/// stalled and the connection dropped. Generous for real clients and TCP
/// fragmentation; small enough that a slow-loris peer cannot pin a session
/// thread forever.
const FRAME_STALL_TIMEOUT: Duration = Duration::from_secs(5);

/// Writes one length-prefixed frame. The prefix and the body go out in one
/// vectored write, so a `nodelay` socket sends them in one segment rather
/// than the 4-byte prefix on its own; short writes are resumed.
pub fn write_frame(w: &mut impl Write, body: &str) -> io::Result<()> {
    let len = body.len();
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame of {len} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"),
        ));
    }
    let prefix = (len as u32).to_be_bytes();
    let mut slices = [IoSlice::new(&prefix), IoSlice::new(body.as_bytes())];
    let mut pending = &mut slices[..];
    while !pending.is_empty() {
        match w.write_vectored(pending) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "peer accepted no bytes mid-frame",
                ))
            }
            Ok(n) => IoSlice::advance_slices(&mut pending, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    w.flush()
}

/// Reads one length-prefixed frame. Returns `Ok(None)` on clean EOF (peer
/// closed between frames); mid-frame EOFs and stalls surface as errors.
///
/// A `WouldBlock`/`TimedOut` from the *first* byte propagates untouched —
/// that is the idle tick poll loops (the server session loop) key off. Once
/// any byte of a frame has been consumed, short reads are retried until the
/// frame completes or `FRAME_STALL_TIMEOUT` (5 s) elapses: surfacing a timeout
/// mid-frame would make the caller retry from the frame boundary, lose the
/// consumed bytes, and desync framing (a body byte like `{` then reads as a
/// huge length prefix).
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<String>> {
    let mut len_buf = [0u8; 4];
    if r.read(&mut len_buf[..1])? == 0 {
        return Ok(None);
    }
    let deadline = Instant::now() + FRAME_STALL_TIMEOUT;
    read_exact_within(r, &mut len_buf[1..], deadline)?;
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("peer announced a {len}-byte frame (cap {MAX_FRAME_BYTES})"),
        ));
    }
    let mut body = vec![0u8; len];
    read_exact_within(r, &mut body, deadline)?;
    String::from_utf8(body)
        .map(Some)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "frame is not UTF-8"))
}

/// `read_exact`, but `WouldBlock`/`TimedOut` (a short poll-timeout on the
/// underlying socket) retries until `deadline` instead of erroring — and the
/// eventual stall error is `InvalidData`, not a timeout kind, so poll loops
/// cannot mistake a half-read frame for an idle connection.
fn read_exact_within(r: &mut impl Read, mut buf: &mut [u8], deadline: Instant) -> io::Result<()> {
    while !buf.is_empty() {
        match r.read(buf) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "peer closed mid-frame",
                ))
            }
            Ok(n) => buf = &mut buf[n..],
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if Instant::now() >= deadline {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "peer stalled mid-frame",
                    ));
                }
            }
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Execute a lineage query against a view.
    Query {
        /// Target view name.
        view: String,
        /// The declarative query.
        spec: QuerySpec,
        /// Artificial pre-execution delay (testing knob, default 0).
        sleep_ms: u64,
    },
    /// Plan a query and return the `EXPLAIN` record.
    Explain {
        /// Target view name.
        view: String,
        /// The declarative query.
        spec: QuerySpec,
    },
    /// Server / cache counters.
    Stats,
}

impl Request {
    /// Parses a request frame.
    pub fn decode(body: &str) -> Result<Request> {
        let v = parse(body)?;
        let ty = v
            .get("type")
            .and_then(Json::as_str)
            .ok_or_else(|| EngineError::InvalidPlan("request is missing `type`".to_string()))?;
        match ty {
            "stats" => Ok(Request::Stats),
            "query" | "explain" => {
                let view = v
                    .get("view")
                    .and_then(Json::as_str)
                    .ok_or_else(|| {
                        EngineError::InvalidPlan("request is missing `view`".to_string())
                    })?
                    .to_string();
                let spec = QuerySpec::from_json(v.get("query").ok_or_else(|| {
                    EngineError::InvalidPlan("request is missing `query`".to_string())
                })?)?;
                if ty == "explain" {
                    Ok(Request::Explain { view, spec })
                } else {
                    let sleep_ms = v
                        .get("sleep_ms")
                        .and_then(Json::as_i64)
                        .and_then(|s| u64::try_from(s).ok())
                        .unwrap_or(0);
                    Ok(Request::Query {
                        view,
                        spec,
                        sleep_ms,
                    })
                }
            }
            other => Err(EngineError::InvalidPlan(format!(
                "unknown request type `{other}`"
            ))),
        }
    }

    /// Encodes the request as a frame body.
    pub fn encode(&self) -> String {
        match self {
            Request::Stats => Json::obj([("type", Json::str("stats"))]).render(),
            Request::Explain { view, spec } => Json::obj([
                ("type", Json::str("explain")),
                ("view", Json::str(view.clone())),
                ("query", spec.to_json()),
            ])
            .render(),
            Request::Query {
                view,
                spec,
                sleep_ms,
            } => {
                let mut pairs = vec![
                    ("type", Json::str("query")),
                    ("view", Json::str(view.clone())),
                    ("query", spec.to_json()),
                ];
                if *sleep_ms > 0 {
                    pairs.push(("sleep_ms", Json::Int(*sleep_ms as i64)));
                }
                Json::obj(pairs).render()
            }
        }
    }
}

/// Typed error codes of the `status: error` response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// Admission control shed the request: the bounded queue is full.
    /// Retryable by design.
    ServerBusy,
    /// The request frame did not parse or failed validation.
    BadRequest,
    /// The named view does not exist in the snapshot.
    UnknownView,
    /// The server is draining; no new work is accepted.
    ShuttingDown,
    /// Planning/execution failed (e.g. an infeasible forced strategy).
    Exec,
}

impl ErrorCode {
    /// Stable wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::ServerBusy => "server_busy",
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::UnknownView => "unknown_view",
            ErrorCode::ShuttingDown => "shutting_down",
            ErrorCode::Exec => "exec",
        }
    }

    /// Parses a wire name back to a code.
    pub fn parse(name: &str) -> Option<ErrorCode> {
        match name {
            "server_busy" => Some(ErrorCode::ServerBusy),
            "bad_request" => Some(ErrorCode::BadRequest),
            "unknown_view" => Some(ErrorCode::UnknownView),
            "shutting_down" => Some(ErrorCode::ShuttingDown),
            "exec" => Some(ErrorCode::Exec),
            _ => None,
        }
    }
}

/// Renders an `{"status":"ok", <key>: <payload>}` response body, shared so
/// the same bytes can go to the cache and to the socket.
pub fn ok_response(key: &'static str, payload: Json) -> Arc<str> {
    Json::obj([("status", Json::str("ok")), (key, payload)])
        .render()
        .into()
}

/// Renders the `{"status":"ok", "result": …}` response of a query: the
/// bytes of `ok_response("result", result_to_json(result))`, written
/// straight into one string with no tree node per rid.
pub fn result_response(result: &LineageResult) -> Arc<str> {
    // A rid takes at most 10 digits and a comma.
    let mut out = String::with_capacity(96 + 11 * result.rids.len());
    out.push_str("{\"status\":\"ok\",\"result\":");
    write_result(result, &mut out);
    out.push('}');
    out.into()
}

/// Renders an error response body.
pub fn error_response(code: ErrorCode, message: &str) -> Arc<str> {
    Json::obj([
        ("status", Json::str("error")),
        ("code", Json::str(code.as_str())),
        ("message", Json::str(message)),
    ])
    .render()
    .into()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "hello").unwrap();
        write_frame(&mut buf, "").unwrap();
        let mut cursor = Cursor::new(buf);
        assert_eq!(read_frame(&mut cursor).unwrap().as_deref(), Some("hello"));
        assert_eq!(read_frame(&mut cursor).unwrap().as_deref(), Some(""));
        assert_eq!(read_frame(&mut cursor).unwrap(), None);
    }

    /// A writer that takes at most three bytes per call, like a socket whose
    /// send buffer is nearly full.
    struct Trickle(Vec<u8>);

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let n = buf.len().min(3);
            self.0.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn short_writes_resume_mid_frame() {
        let mut w = Trickle(Vec::new());
        write_frame(&mut w, "hello, world").unwrap();
        write_frame(&mut w, "").unwrap();
        let mut cursor = Cursor::new(w.0);
        assert_eq!(
            read_frame(&mut cursor).unwrap().as_deref(),
            Some("hello, world")
        );
        assert_eq!(read_frame(&mut cursor).unwrap().as_deref(), Some(""));
        assert_eq!(read_frame(&mut cursor).unwrap(), None);
    }

    #[test]
    fn frames_larger_than_the_socket_buffer_round_trip() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let body: String = (0..6 << 20)
            .map(|i| char::from(b'a' + (i % 26) as u8))
            .collect();
        let sent = body.clone();
        let addr = listener.local_addr().unwrap();
        let writer = std::thread::spawn(move || {
            let mut stream = std::net::TcpStream::connect(addr).unwrap();
            write_frame(&mut stream, &sent).unwrap();
        });
        let (mut stream, _) = listener.accept().unwrap();
        assert_eq!(read_frame(&mut stream).unwrap(), Some(body));
        writer.join().unwrap();
    }

    #[test]
    fn oversized_announcements_are_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_be_bytes());
        assert!(read_frame(&mut Cursor::new(buf)).is_err());
    }

    #[test]
    fn truncated_frames_error_rather_than_hang() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "hello").unwrap();
        buf.truncate(buf.len() - 2);
        assert!(read_frame(&mut Cursor::new(buf)).is_err());
    }

    #[test]
    fn requests_round_trip() {
        let reqs = [
            Request::Stats,
            Request::Query {
                view: "by_z".into(),
                spec: QuerySpec::backward().rids([4, 2]),
                sleep_ms: 0,
            },
            Request::Query {
                view: "by_z".into(),
                spec: QuerySpec::multi_view().rids([0]).then_through("by_bin"),
                sleep_ms: 25,
            },
            Request::Explain {
                view: "by_bin".into(),
                spec: QuerySpec::forward(),
            },
        ];
        for req in reqs {
            assert_eq!(Request::decode(&req.encode()).unwrap(), req);
        }
    }

    #[test]
    fn malformed_requests_are_rejected() {
        for bad in [
            "",
            "{}",
            r#"{"type":"query"}"#,
            r#"{"type":"query","view":"x"}"#,
            r#"{"type":"nope"}"#,
        ] {
            assert!(Request::decode(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn result_responses_are_the_tree_encoders_bytes() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use smoke_planner::wire::result_to_json;
        use smoke_planner::Strategy;
        use smoke_storage::{DataType, Relation, Value};

        let mut rng = StdRng::seed_from_u64(0x5E4D);
        let rows = Relation::builder("answer")
            .column("k", DataType::Int)
            .column("f", DataType::Float)
            .column("s", DataType::Str)
            .row(vec![
                Value::Int(i64::MIN),
                Value::Float(-2.5),
                Value::Str("q\"uote\\ \n\u{1} ∀".into()),
            ])
            .build()
            .unwrap();
        let strategies = [
            Strategy::EagerTrace,
            Strategy::LazyRewrite,
            Strategy::PartitionPruned,
            Strategy::CubeHit,
        ];
        for round in 0..64 {
            let len = rng.gen_range(0..200);
            let result = LineageResult {
                strategy: strategies[round % strategies.len()],
                rids: (0..len)
                    .map(|i| match i % 3 {
                        0 => rng.gen_range(0..u32::MAX),
                        1 => u32::MAX,
                        _ => rng.gen_range(0..10),
                    })
                    .collect(),
                rows: (round % 2 == 1).then(|| rows.clone()),
            };
            assert_eq!(
                result_response(&result),
                ok_response("result", result_to_json(&result))
            );
        }
    }

    #[test]
    fn error_codes_round_trip() {
        for code in [
            ErrorCode::ServerBusy,
            ErrorCode::BadRequest,
            ErrorCode::UnknownView,
            ErrorCode::ShuttingDown,
            ErrorCode::Exec,
        ] {
            assert_eq!(ErrorCode::parse(code.as_str()), Some(code));
        }
        assert_eq!(ErrorCode::parse("nope"), None);
    }
}
