//! The concurrent lineage server: sessions under an admission gate.
//!
//! One thread per connection, and a request never leaves it:
//!
//! ```text
//!  accept thread ──spawns──▶ session threads (one per TCP connection)
//!      session: read frame ─▶ decode ─▶ cache probe ─▶ gate ──full──▶ ServerBusy (shed)
//!                                                       ▼
//!                                         execute ─▶ fill cache ─▶ reply
//! ```
//!
//! Admission control is a counting gate: at most `workers` queries execute
//! at once (against the shared `Arc<Snapshot>`), at most `queue_depth` more
//! wait for a slot, and the next is answered `server_busy` immediately —
//! overload sheds, it never hangs. Cache hits, `explain` and `stats` bypass
//! the gate entirely (repeated interactions — the common case for brushing
//! dashboards — stay interactive even under overload).
//!
//! Shutdown is graceful: the accept loop stops, sessions finish the request
//! they are on — including one still waiting for a slot, so an admitted
//! request is always answered — new frames get `shutting_down`, and every
//! session is joined.

use std::io::Write as _;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use smoke_planner::json::Json;
use smoke_planner::wire::{explain_to_json, QuerySpec};

use crate::cache::QueryCache;
use crate::protocol::{
    error_response, ok_response, read_frame, result_response, write_frame, ErrorCode, Request,
    MAX_FRAME_BYTES,
};
use crate::snapshot::Snapshot;

/// Tuning knobs of a [`Server`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerConfig {
    /// Queries executing at once (each on its own session thread).
    pub workers: usize,
    /// Queries that may wait for a slot; one more is shed (`server_busy`).
    pub queue_depth: usize,
    /// Result-cache capacity in entries (0 disables caching).
    pub cache_capacity: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            queue_depth: 64,
            cache_capacity: 256,
        }
    }
}

/// Counters reported by the `STATS` request and [`ServerHandle::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Requests answered successfully (including cache hits).
    pub served: u64,
    /// Requests shed by admission control.
    pub shed: u64,
    /// Requests answered with a non-busy error.
    pub errors: u64,
    /// Cache hits.
    pub cache_hits: u64,
    /// Cache misses.
    pub cache_misses: u64,
    /// Cache evictions.
    pub cache_evictions: u64,
    /// Queries currently admitted (executing or waiting for a slot).
    pub in_flight: u64,
}

/// The admission gate: a counting semaphore with a bounded waiting room.
/// Lock poisoning is recovered — the state is two counters and each mutation
/// is a single effect, so a panic cannot leave it half-written.
struct Gate {
    /// `(running, waiting)`.
    state: Mutex<(usize, usize)>,
    freed: Condvar,
    slots: usize,
    waiting_room: usize,
}

/// An execution slot, released on drop — on unwind too, so a panicking
/// query cannot shrink capacity.
struct Permit<'a>(&'a Gate);

impl Gate {
    fn new(slots: usize, waiting_room: usize) -> Self {
        Gate {
            state: Mutex::new((0, 0)),
            freed: Condvar::new(),
            slots: slots.max(1),
            waiting_room: waiting_room.max(1),
        }
    }

    /// Takes a slot, waiting for one if the waiting room has space; `None`
    /// (busy) when every slot is taken and the waiting room is full.
    fn admit(&self) -> Option<Permit<'_>> {
        let mut state = self.lock();
        if state.0 >= self.slots {
            if state.1 >= self.waiting_room {
                return None;
            }
            state.1 += 1;
            state = self
                .freed
                .wait_while(state, |s| s.0 >= self.slots)
                .unwrap_or_else(PoisonError::into_inner);
            state.1 -= 1;
        }
        state.0 += 1;
        Some(Permit(self))
    }

    fn lock(&self) -> MutexGuard<'_, (usize, usize)> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        self.0.lock().0 -= 1;
        self.0.freed.notify_one();
    }
}

/// State shared by every thread of one server instance.
struct Shared {
    snapshot: Arc<Snapshot>,
    gate: Gate,
    cache: QueryCache,
    config: ServerConfig,
    shutdown: AtomicBool,
    served: AtomicU64,
    shed: AtomicU64,
    errors: AtomicU64,
}

impl Shared {
    fn stats(&self) -> ServerStats {
        let cache = self.cache.counters();
        let (running, waiting) = *self.gate.lock();
        ServerStats {
            served: self.served.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            cache_evictions: cache.evictions,
            in_flight: (running + waiting) as u64,
        }
    }

    fn stats_json(&self) -> Json {
        let stats = self.stats();
        let cache = self.cache.counters();
        let waiting = self.gate.lock().1;
        Json::obj([
            ("served", Json::Int(stats.served as i64)),
            ("shed", Json::Int(stats.shed as i64)),
            ("errors", Json::Int(stats.errors as i64)),
            ("cache_hits", Json::Int(cache.hits as i64)),
            ("cache_misses", Json::Int(cache.misses as i64)),
            ("cache_evictions", Json::Int(cache.evictions as i64)),
            ("cache_entries", Json::Int(cache.entries as i64)),
            ("in_flight", Json::Int(stats.in_flight as i64)),
            ("queue_depth", Json::Int(waiting as i64)),
            ("workers", Json::Int(self.config.workers as i64)),
            ("queue_capacity", Json::Int(self.config.queue_depth as i64)),
            (
                "views",
                Json::Arr(
                    self.snapshot
                        .view_names()
                        .into_iter()
                        .map(Json::str)
                        .collect(),
                ),
            ),
            ("heap_bytes", Json::Int(self.snapshot.heap_bytes() as i64)),
        ])
    }
}

/// A running server. Dropping the handle without calling
/// [`ServerHandle::shutdown`] detaches the threads (the process keeps
/// serving until exit) — tests and benches should shut down explicitly.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: JoinHandle<Vec<JoinHandle<()>>>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current server counters.
    pub fn stats(&self) -> ServerStats {
        self.shared.stats()
    }

    /// Graceful shutdown: stop accepting, let every session finish its
    /// current request (waiting for a slot included), join every thread.
    /// Returns the final counters.
    pub fn shutdown(self) -> ServerStats {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // The accept thread notices the flag within one poll tick and
        // returns the session handles it spawned (none if it panicked).
        // Sessions exit at their next idle read timeout, or after answering
        // the request they are processing.
        for session in self.accept.join().unwrap_or_default() {
            let _ = session.join();
        }
        self.shared.stats()
    }
}

/// The server constructor.
pub struct Server;

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and starts
    /// the accept loop over the given snapshot.
    pub fn serve(
        snapshot: Arc<Snapshot>,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        listener.set_nonblocking(true)?;

        let shared = Arc::new(Shared {
            snapshot,
            gate: Gate::new(config.workers, config.queue_depth),
            cache: QueryCache::new(config.cache_capacity),
            config,
            shutdown: AtomicBool::new(false),
            served: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            errors: AtomicU64::new(0),
        });

        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::Builder::new()
            .name("smoke-accept".to_string())
            .spawn(move || accept_loop(listener, &accept_shared))?;

        Ok(ServerHandle {
            addr: local,
            shared,
            accept,
        })
    }
}

/// Poll interval of the accept loop and the session idle-read timeout; both
/// bound how long shutdown waits on an idle thread.
const POLL_TICK: Duration = Duration::from_millis(20);

/// Stack of a session thread. A request recurses once per JSON nesting level,
/// up to [`smoke_planner::json::MAX_DEPTH`], through the parser, the
/// expression decoder, normalization and evaluation: a few hundred KiB
/// optimized, but close to the 2 MiB default in an unoptimized build. Only
/// the pages a request touches are committed.
const SESSION_STACK_BYTES: usize = 8 << 20;

fn accept_loop(listener: TcpListener, shared: &Arc<Shared>) -> Vec<JoinHandle<()>> {
    let mut sessions: Vec<JoinHandle<()>> = Vec::new();
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return sessions;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                let shared = Arc::clone(shared);
                // A failed spawn (thread exhaustion) drops the stream: the
                // client sees a closed connection and retries, and the
                // accept loop keeps serving everyone else.
                if let Ok(handle) = std::thread::Builder::new()
                    .name("smoke-session".to_string())
                    .stack_size(SESSION_STACK_BYTES)
                    .spawn(move || session_loop(stream, &shared))
                {
                    sessions.push(handle);
                }
                // Reap finished sessions so long-running servers do not
                // accumulate handles.
                sessions.retain(|h| !h.is_finished());
            }
            // Nothing to accept (`WouldBlock`) or a transient accept error.
            Err(_) => std::thread::sleep(POLL_TICK),
        }
    }
}

/// One session: a request/response loop over a single connection.
fn session_loop(stream: TcpStream, shared: &Arc<Shared>) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(POLL_TICK));
    let Ok(mut reader) = stream.try_clone() else {
        return;
    };
    let mut writer = stream;
    loop {
        match read_frame(&mut reader) {
            Ok(Some(body)) => {
                let draining = shared.shutdown.load(Ordering::SeqCst);
                let response = if draining {
                    error_response(ErrorCode::ShuttingDown, "server is draining")
                } else {
                    handle_request(&body, shared)
                };
                if write_frame(&mut writer, &response).is_err() || draining {
                    return;
                }
            }
            Ok(None) => return,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                // Idle tick: keep waiting unless the server is draining.
                if shared.shutdown.load(Ordering::SeqCst) {
                    let _ = writer.flush();
                    return;
                }
            }
            Err(_) => return,
        }
    }
}

/// Parses, admits, and answers one request frame.
fn handle_request(body: &str, shared: &Arc<Shared>) -> Arc<str> {
    let request = match Request::decode(body) {
        Ok(r) => r,
        Err(e) => {
            shared.errors.fetch_add(1, Ordering::Relaxed);
            return error_response(ErrorCode::BadRequest, &e.to_string());
        }
    };
    match request {
        Request::Stats => {
            shared.served.fetch_add(1, Ordering::Relaxed);
            ok_response("stats", shared.stats_json())
        }
        Request::Explain { view, spec } => {
            // Explains are cheap (planning only) and feed dashboards'
            // debugging panes; they do not compete with queries for
            // execution slots.
            match shared.snapshot.explain(&view, &spec) {
                Ok(explain) => {
                    shared.served.fetch_add(1, Ordering::Relaxed);
                    ok_response("explain", explain_to_json(&explain))
                }
                Err(e) => error_for(&view, shared, &e),
            }
        }
        Request::Query {
            view,
            spec,
            sleep_ms,
        } => {
            let cache_key = format!("q:{view}:{}", spec.cache_key());
            if let Some(hit) = shared.cache.get(&cache_key) {
                shared.served.fetch_add(1, Ordering::Relaxed);
                return hit;
            }
            let Some(_permit) = shared.gate.admit() else {
                shared.shed.fetch_add(1, Ordering::Relaxed);
                return error_response(
                    ErrorCode::ServerBusy,
                    "admission queue is full; retry with backoff",
                );
            };
            execute(&view, &spec, &cache_key, sleep_ms, shared)
        }
    }
}

fn error_for(view: &str, shared: &Arc<Shared>, e: &smoke_core::EngineError) -> Arc<str> {
    shared.errors.fetch_add(1, Ordering::Relaxed);
    let msg = e.to_string();
    if shared.snapshot.view(view).is_none() {
        error_response(ErrorCode::UnknownView, &msg)
    } else {
        error_response(ErrorCode::Exec, &msg)
    }
}

/// Executes one admitted query against the shared snapshot and fills the
/// cache with the reply it returns: one encoding, shared by both. The caller
/// holds the [`Permit`].
///
/// A reply longer than [`MAX_FRAME_BYTES`] cannot be framed. It is answered
/// with a typed `exec` error naming its size, and neither cached nor counted
/// as served, so the session stays open and a repeat fails the same way.
///
/// Execution runs inside `catch_unwind`: a panicking plan (a planner bug, a
/// corrupt index — or the `server::worker::execute` fail point in tests)
/// answers its session with a typed `exec` error and the session keeps
/// serving. One poisoned query must never cost a connection or a slot.
fn execute(
    view: &str,
    spec: &QuerySpec,
    key: &str,
    sleep_ms: u64,
    shared: &Arc<Shared>,
) -> Arc<str> {
    if sleep_ms > 0 {
        std::thread::sleep(Duration::from_millis(sleep_ms));
    }
    // AssertUnwindSafe: on panic the closure's only shared touchables are
    // the snapshot (immutable) and poison-recovering containers; no broken
    // invariant can escape the unwind.
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        smoke_core::failpoint::hit("server::worker::execute");
        shared.snapshot.execute(view, spec)
    }));
    match outcome {
        Ok(Ok(result)) => {
            let body = result_response(&result);
            if body.len() > MAX_FRAME_BYTES {
                shared.errors.fetch_add(1, Ordering::Relaxed);
                return error_response(
                    ErrorCode::Exec,
                    &format!(
                        "a reply of {} bytes ({} rids) exceeds the {MAX_FRAME_BYTES}-byte frame cap",
                        body.len(),
                        result.rids.len()
                    ),
                );
            }
            shared.cache.insert(key, Arc::clone(&body));
            shared.served.fetch_add(1, Ordering::Relaxed);
            body
        }
        Ok(Err(e)) => error_for(view, shared, &e),
        Err(payload) => {
            shared.errors.fetch_add(1, Ordering::Relaxed);
            let msg = payload
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
                .unwrap_or("non-string panic payload");
            error_response(
                ErrorCode::Exec,
                &format!("query execution panicked (contained): {msg}"),
            )
        }
    }
}
