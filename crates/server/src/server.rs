//! The concurrent lineage server: sessions, admission control, worker pool.
//!
//! Shape (modeled on multi-front-end-over-one-executor serving systems):
//!
//! ```text
//!  accept thread ──spawns──▶ session threads (one per TCP connection)
//!      session: read frame ─▶ cache probe ─▶ bounded job queue ─▶ reply
//!                                   │  full? ──▶ ServerBusy (load shed)
//!  worker pool (N threads) ◀── pops jobs, executes against Arc<Snapshot>,
//!                               fills the cache, answers the session
//! ```
//!
//! Admission control is a bounded job queue: when it is full the session
//! replies `server_busy` immediately instead of queueing unbounded work —
//! overload sheds, it never hangs. Cache hits bypass admission entirely
//! (repeated interactions — the common case for brushing dashboards — stay
//! interactive even under overload).
//!
//! Shutdown is graceful and drains: the accept loop stops, sessions finish
//! the request they are on (new frames after the flag get `shutting_down`),
//! the queue is closed, and workers drain every admitted job before exiting —
//! an admitted request is always answered.

use std::collections::VecDeque;
use std::io::Write as _;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use smoke_planner::json::Json;
use smoke_planner::wire::{explain_to_json, result_to_json, QuerySpec};

use crate::cache::QueryCache;
use crate::protocol::{error_response, ok_response, read_frame, write_frame, ErrorCode, Request};
use crate::snapshot::Snapshot;

/// Tuning knobs of a [`Server`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerConfig {
    /// Worker threads executing queries.
    pub workers: usize,
    /// Bounded job-queue depth; a full queue sheds (`server_busy`).
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
    /// Jobs currently admitted but not yet finished.
    pub in_flight: u64,
}

/// One admitted unit of work: an already-validated query plus the channel
/// its session waits on.
struct Job {
    view: String,
    spec: QuerySpec,
    cache_key: String,
    sleep_ms: u64,
    reply: mpsc::Sender<String>,
}

/// A bounded MPMC job queue (mutex + condvar; `std::sync::mpsc` receivers
/// cannot be shared across a worker pool without serializing it).
///
/// Lock poisoning is recovered everywhere: a panic between guard
/// acquisition and release cannot leave `QueueInner` mid-mutation
/// (`push_back`/`pop_front`/flag stores are each a single effect), and the
/// queue outliving one panicked worker is exactly the availability story
/// the containment layer promises.
struct JobQueue {
    inner: Mutex<QueueInner>,
    ready: Condvar,
    capacity: usize,
}

struct QueueInner {
    jobs: VecDeque<Job>,
    closed: bool,
}

/// Why [`JobQueue::try_push`] rejected (and dropped) a job.
enum PushError {
    Full,
    Closed,
}

impl JobQueue {
    fn new(capacity: usize) -> Self {
        JobQueue {
            inner: Mutex::new(QueueInner {
                jobs: VecDeque::with_capacity(capacity),
                closed: false,
            }),
            ready: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Admits a job unless the queue is full (shed) or closed (shutdown).
    fn try_push(&self, job: Job) -> Result<(), PushError> {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        if inner.closed {
            return Err(PushError::Closed);
        }
        if inner.jobs.len() >= self.capacity {
            return Err(PushError::Full);
        }
        inner.jobs.push_back(job);
        drop(inner);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks for the next job; `None` once the queue is closed *and*
    /// drained — workers finish every admitted job before exiting.
    fn pop(&self) -> Option<Job> {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(job) = inner.jobs.pop_front() {
                return Some(job);
            }
            if inner.closed {
                return None;
            }
            inner = self
                .ready
                .wait(inner)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn close(&self) {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .closed = true;
        self.ready.notify_all();
    }

    fn depth(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .jobs
            .len()
    }
}

/// State shared by every thread of one server instance.
struct Shared {
    snapshot: Arc<Snapshot>,
    queue: JobQueue,
    cache: QueryCache,
    config: ServerConfig,
    shutdown: AtomicBool,
    served: AtomicU64,
    shed: AtomicU64,
    errors: AtomicU64,
    in_flight: AtomicU64,
}

impl Shared {
    fn stats(&self) -> ServerStats {
        let cache = self.cache.counters();
        ServerStats {
            served: self.served.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            cache_evictions: cache.evictions,
            in_flight: self.in_flight.load(Ordering::Relaxed),
        }
    }

    fn stats_json(&self) -> Json {
        let stats = self.stats();
        let cache = self.cache.counters();
        Json::obj([
            ("served", Json::Int(stats.served as i64)),
            ("shed", Json::Int(stats.shed as i64)),
            ("errors", Json::Int(stats.errors as i64)),
            ("cache_hits", Json::Int(cache.hits as i64)),
            ("cache_misses", Json::Int(cache.misses as i64)),
            ("cache_evictions", Json::Int(cache.evictions as i64)),
            ("cache_entries", Json::Int(cache.entries as i64)),
            ("in_flight", Json::Int(stats.in_flight as i64)),
            ("queue_depth", Json::Int(self.queue.depth() as i64)),
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
    accept: Option<JoinHandle<Vec<JoinHandle<()>>>>,
    workers: Vec<JoinHandle<()>>,
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
    /// current request, drain all admitted jobs, join every thread. Returns
    /// the final counters.
    pub fn shutdown(mut self) -> ServerStats {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // The accept thread notices the flag within one poll tick and
        // returns the session handles it spawned. `accept` is only `None`
        // if shutdown already ran (it consumes `self`, so only via a
        // re-entrant drop path); a panicked accept thread yields no session
        // handles, and the queue close below still drains the workers.
        let Some(accept) = self.accept.take() else {
            return self.shared.stats();
        };
        let sessions = accept.join().unwrap_or_default();
        // Sessions exit at their next idle read timeout (or after answering
        // the request they are processing; workers are still running here).
        for session in sessions {
            let _ = session.join();
        }
        // No sessions remain, so no new jobs can arrive: close the queue and
        // let the workers drain what was admitted.
        self.shared.queue.close();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        self.shared.stats()
    }
}

/// The server constructor.
pub struct Server;

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and starts
    /// the accept loop and worker pool over the given snapshot.
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
            queue: JobQueue::new(config.queue_depth),
            cache: QueryCache::new(config.cache_capacity),
            config,
            shutdown: AtomicBool::new(false),
            served: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            in_flight: AtomicU64::new(0),
        });

        let workers = (0..config.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("smoke-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
            })
            .collect::<std::io::Result<Vec<_>>>()?;

        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::Builder::new()
            .name("smoke-accept".to_string())
            .spawn(move || accept_loop(listener, &accept_shared))?;

        Ok(ServerHandle {
            addr: local,
            shared,
            accept: Some(accept),
            workers,
        })
    }
}

/// Poll interval of the accept loop and the session idle-read timeout; both
/// bound how long shutdown waits on an idle thread.
const POLL_TICK: Duration = Duration::from_millis(20);

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
                    .spawn(move || session_loop(stream, &shared))
                {
                    sessions.push(handle);
                }
                // Reap finished sessions so long-running servers do not
                // accumulate handles.
                sessions.retain(|h| !h.is_finished());
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(POLL_TICK);
            }
            Err(_) => std::thread::sleep(POLL_TICK),
        }
    }
}

/// One session: a request/response loop over a single connection.
fn session_loop(stream: TcpStream, shared: &Arc<Shared>) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(POLL_TICK));
    let mut reader = match stream.try_clone() {
        Ok(r) => r,
        Err(_) => return,
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
                if write_frame(&mut writer, &response).is_err() {
                    return;
                }
                if draining {
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
fn handle_request(body: &str, shared: &Arc<Shared>) -> String {
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
            // debugging panes; they run inline on the session thread rather
            // than competing with queries for worker slots.
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
            let (reply_tx, reply_rx) = mpsc::channel();
            let job = Job {
                view,
                spec,
                cache_key,
                sleep_ms,
                reply: reply_tx,
            };
            shared.in_flight.fetch_add(1, Ordering::Relaxed);
            match shared.queue.try_push(job) {
                Ok(()) => match reply_rx.recv() {
                    Ok(response) => response,
                    Err(_) => {
                        shared.errors.fetch_add(1, Ordering::Relaxed);
                        error_response(ErrorCode::Exec, "worker dropped the request")
                    }
                },
                Err(PushError::Full) => {
                    shared.in_flight.fetch_sub(1, Ordering::Relaxed);
                    shared.shed.fetch_add(1, Ordering::Relaxed);
                    error_response(
                        ErrorCode::ServerBusy,
                        "admission queue is full; retry with backoff",
                    )
                }
                Err(PushError::Closed) => {
                    shared.in_flight.fetch_sub(1, Ordering::Relaxed);
                    shared.errors.fetch_add(1, Ordering::Relaxed);
                    error_response(ErrorCode::ShuttingDown, "server is draining")
                }
            }
        }
    }
}

fn error_for(view: &str, shared: &Arc<Shared>, e: &smoke_core::EngineError) -> String {
    shared.errors.fetch_add(1, Ordering::Relaxed);
    let msg = e.to_string();
    if shared.snapshot.view(view).is_none() {
        error_response(ErrorCode::UnknownView, &msg)
    } else {
        error_response(ErrorCode::Exec, &msg)
    }
}

/// Worker: pop admitted jobs, execute against the shared snapshot, fill the
/// cache, answer the session. Exits when the queue is closed and drained.
///
/// Execution runs inside `catch_unwind`: a panicking plan (a planner bug, a
/// corrupt index — or the `server::worker::execute` fail point in tests)
/// answers its session with a typed `exec` error and the worker keeps
/// serving. One poisoned query must never shrink the pool.
fn worker_loop(shared: &Arc<Shared>) {
    while let Some(job) = shared.queue.pop() {
        if job.sleep_ms > 0 {
            std::thread::sleep(Duration::from_millis(job.sleep_ms));
        }
        // AssertUnwindSafe: on panic the closure's only shared touchables
        // are the snapshot (immutable) and poison-recovering containers; no
        // broken invariant can escape the unwind.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            smoke_core::failpoint::hit("server::worker::execute");
            shared.snapshot.execute(&job.view, &job.spec)
        }));
        let response = match outcome {
            Ok(Ok(result)) => {
                let body = ok_response("result", result_to_json(&result));
                shared.cache.insert(&job.cache_key, body.clone());
                shared.served.fetch_add(1, Ordering::Relaxed);
                body
            }
            Ok(Err(e)) => error_for(&job.view, shared, &e),
            Err(payload) => {
                shared.errors.fetch_add(1, Ordering::Relaxed);
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_string());
                error_response(
                    ErrorCode::Exec,
                    &format!("query execution panicked (contained): {msg}"),
                )
            }
        };
        shared.in_flight.fetch_sub(1, Ordering::Relaxed);
        // A session that vanished (client gone) makes this send fail; the
        // work is simply dropped.
        let _ = job.reply.send(response);
    }
}
