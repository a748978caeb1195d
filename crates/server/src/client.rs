//! A minimal blocking client for the lineage server.
//!
//! One [`Client`] owns one TCP connection (one server session) and issues
//! synchronous request/response exchanges. Benches and the soak harness run
//! many clients on their own threads to generate concurrency.

use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use smoke_planner::json::{parse, Json};
use smoke_planner::wire::{result_from_json, QuerySpec};
use smoke_planner::LineageResult;

use crate::protocol::{read_frame, write_frame, ErrorCode, Request};

/// A decoded server response.
#[derive(Debug, Clone)]
pub enum Reply {
    /// A successful query: the lineage result.
    Result(LineageResult),
    /// A successful explain: the raw `EXPLAIN` record.
    Explain(Json),
    /// A successful stats request: the raw counter object.
    Stats(Json),
    /// The admission controller shed the request; retry with backoff.
    Busy(String),
    /// The server is draining and accepts no new work.
    ShuttingDown(String),
    /// Any other error (bad request, unknown view, execution failure).
    Error {
        /// The typed error code.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

impl Reply {
    /// Extracts a successful query reply, or describes what arrived instead.
    pub fn into_result(self) -> Result<LineageResult, String> {
        match self {
            Reply::Result(r) => Ok(r),
            other => Err(format!("expected a query result, got {other:?}")),
        }
    }

    /// Whether this is the retryable load-shed reply.
    pub fn is_busy(&self) -> bool {
        matches!(self, Reply::Busy(_))
    }
}

/// A blocking connection to a lineage server.
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connects to a server.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client { stream })
    }

    /// Caps how long a single exchange may block on the socket.
    pub fn set_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.stream.set_read_timeout(timeout)?;
        self.stream.set_write_timeout(timeout)
    }

    /// Executes a lineage query against a view.
    pub fn query(&mut self, view: &str, spec: QuerySpec) -> io::Result<Reply> {
        self.query_with_sleep(view, spec, 0)
    }

    /// Executes a query with an artificial server-side delay (testing knob
    /// for saturating the execution slots deterministically).
    pub fn query_with_sleep(
        &mut self,
        view: &str,
        spec: QuerySpec,
        sleep_ms: u64,
    ) -> io::Result<Reply> {
        self.exchange(&Request::Query {
            view: view.to_string(),
            spec,
            sleep_ms,
        })
    }

    /// Plans a query and returns the server's `EXPLAIN` record.
    pub fn explain(&mut self, view: &str, spec: QuerySpec) -> io::Result<Reply> {
        self.exchange(&Request::Explain {
            view: view.to_string(),
            spec,
        })
    }

    /// Fetches server / cache counters.
    pub fn stats(&mut self) -> io::Result<Reply> {
        self.exchange(&Request::Stats)
    }

    fn exchange(&mut self, request: &Request) -> io::Result<Reply> {
        write_frame(&mut self.stream, &request.encode())?;
        let body = read_frame(&mut self.stream)?.ok_or_else(|| {
            io::Error::new(io::ErrorKind::UnexpectedEof, "server closed the session")
        })?;
        decode_reply(&body)
    }
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

fn decode_reply(body: &str) -> io::Result<Reply> {
    let v = parse(body).map_err(|e| bad(e.to_string()))?;
    match v.get("status").and_then(Json::as_str) {
        Some("ok") => {
            if let Some(result) = v.get("result") {
                let result = result_from_json(result).map_err(|e| bad(e.to_string()))?;
                Ok(Reply::Result(result))
            } else if let Some(explain) = v.get("explain") {
                Ok(Reply::Explain(explain.clone()))
            } else if let Some(stats) = v.get("stats") {
                Ok(Reply::Stats(stats.clone()))
            } else {
                Err(bad("ok response carries no payload"))
            }
        }
        Some("error") => {
            let code = v
                .get("code")
                .and_then(Json::as_str)
                .and_then(ErrorCode::parse)
                .ok_or_else(|| bad("error response carries no known code"))?;
            let message = v
                .get("message")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string();
            Ok(match code {
                ErrorCode::ServerBusy => Reply::Busy(message),
                ErrorCode::ShuttingDown => Reply::ShuttingDown(message),
                _ => Reply::Error { code, message },
            })
        }
        _ => Err(bad("response carries no status")),
    }
}
