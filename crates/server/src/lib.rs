//! # tspg-server
//!
//! A **resident serving frontend** for the batch query engine: one loaded
//! graph, one long-lived [`QueryEngine`], many concurrent clients over a
//! unix domain socket speaking the line-oriented [`protocol`].
//!
//! Every engine win since the planner landed — result-cache hits, dedup,
//! contained-window and envelope sharing, arrival profiles — only pays off
//! *inside a batch* or across batches of a long-lived process. One-shot
//! CLI invocations get none of it. The server closes that gap with
//! **admission micro-batching**:
//!
//! * per-connection **reader threads** parse request lines and enqueue
//!   them — tagged `(client, request_id)` — on a shared admission queue;
//! * a single **dispatcher thread** flushes the queue to
//!   [`QueryEngine::run_batch_with_stats`] as soon as
//!   [`ServerConfig::admit_max`] requests accumulate **or** the oldest
//!   pending request has waited [`ServerConfig::admit_window`], whichever
//!   comes first — so strangers' queries land in one batch and share
//!   dedup/containment/envelope/profile work. With nothing pending the
//!   dispatcher sleeps until a request arrives;
//! * answers stream back per request on the client's connection, tagged
//!   with the request id (a client may pipeline up to
//!   [`ServerConfig::quota`] requests; beyond that it gets tagged
//!   `error … quota exceeded` replies instead of queue slots).
//!
//! The `stats` verb snapshots everything as `key=value` lines: the
//! server's own admission counters, the engine's accumulated
//! [`BatchStats`] (via [`BatchStats::key_values`]) and the result cache's
//! [`tspg_core::CacheStats`]. The `shutdown` verb drains the queue,
//! answers everything pending, unlinks the socket and exits cleanly.
//!
//! Batching changes *who computes* an answer, never the answer: every
//! response is byte-identical to a one-shot [`tspg_core::generate_tspg`]
//! call, which `tests/server_admission.rs` pins across a client grid and
//! CI's `server-smoke` job re-checks end to end on every push.
//!
//! ```no_run
//! use tspg_core::QueryEngine;
//! use tspg_graph::fixtures::figure1_graph;
//! use tspg_server::{Server, ServerConfig};
//!
//! let engine = QueryEngine::new(figure1_graph());
//! let handle = Server::bind(engine, "/tmp/tspg.sock", ServerConfig::default()).unwrap();
//! // ... clients connect and speak the protocol ...
//! handle.shutdown();
//! let report = handle.join();
//! assert_eq!(report.totals.queries, 0);
//! ```

#![forbid(unsafe_code)]

pub mod protocol;

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tspg_core::{BatchStats, QueryEngine, QuerySpec};
use tspg_graph::TemporalEdge;

/// Admission and fairness knobs of a [`Server`].
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Flush the admission queue to the engine once this many requests are
    /// pending (the size trigger of the micro-batch).
    pub admit_max: usize,
    /// Flush once the *oldest* pending request has waited this long (the
    /// latency trigger). Admission adds at most this much to a request's
    /// latency; in exchange concurrent strangers share batch work.
    pub admit_window: Duration,
    /// Per-client cap on pipelined (sent but unanswered) requests. A
    /// request beyond the cap is answered with a tagged `error` line
    /// instead of a queue slot, so one greedy client cannot starve the
    /// admission queue.
    pub quota: usize,
    /// Worker threads handed to [`QueryEngine::run_batch_with_stats`] per
    /// flush.
    pub threads: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        let threads =
            std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1);
        Self { admit_max: 32, admit_window: Duration::from_millis(2), quota: 1024, threads }
    }
}

/// Final accounting of a server's lifetime, returned by
/// [`ServerHandle::join`].
#[derive(Clone, Copy, Debug, Default)]
pub struct ServerReport {
    /// Accumulated engine counters over every flushed batch.
    pub totals: BatchStats,
    /// Batches flushed to the engine.
    pub batches: u64,
    /// Request lines received (all verbs).
    pub requests: u64,
    /// `result` lines successfully written back.
    pub responses: u64,
    /// Computed answers dropped because their client had disconnected.
    pub dropped: u64,
    /// Requests (queries and ingests) rejected with a quota error.
    pub quota_rejections: u64,
    /// Request lines that failed to parse.
    pub malformed: u64,
}

/// One request parked in the admission queue.
///
/// Queries and ingests share one FIFO queue so a client that pipelines
/// `query … ingest … query …` observes its own mutations in order; the
/// dispatcher drains the queue in *homogeneous runs* (see
/// [`collect_batch`]), which is what makes "a batch never straddles an
/// epoch" true: every query of a batch runs against the graph exactly as
/// it stood when the batch was collected.
enum Pending {
    Query(PendingQuery),
    Ingest(PendingIngest),
}

impl Pending {
    fn enqueued(&self) -> Instant {
        match self {
            Pending::Query(p) => p.enqueued,
            Pending::Ingest(p) => p.enqueued,
        }
    }
}

/// One query awaiting admission.
struct PendingQuery {
    client: Arc<ClientSlot>,
    id: u64,
    query: QuerySpec,
    enqueued: Instant,
}

/// One edge batch awaiting application at the next batch boundary.
struct PendingIngest {
    client: Arc<ClientSlot>,
    edges: Vec<TemporalEdge>,
    enqueued: Instant,
}

/// Per-connection state shared between its reader thread and the
/// dispatcher.
struct ClientSlot {
    /// Write half (a dup of the connection's fd); all response writers
    /// serialize on this lock.
    writer: Mutex<UnixStream>,
    /// Requests enqueued but not yet answered (the quota gauge).
    in_flight: AtomicUsize,
    /// Set once the connection is known dead — pending answers for a gone
    /// client are dropped instead of written.
    gone: AtomicBool,
}

impl ClientSlot {
    /// Writes one protocol line, its `\n` appended so the line goes out in
    /// one write; on failure the client is marked gone so the dispatcher
    /// stops composing answers for it.
    fn write_line(&self, mut line: String) -> bool {
        line.push('\n');
        let Ok(mut writer) = self.writer.lock() else {
            return false;
        };
        let ok = writer.write_all(line.as_bytes()).and_then(|()| writer.flush()).is_ok();
        if !ok {
            self.gone.store(true, Ordering::Release);
        }
        ok
    }

    /// Tears the connection down (both halves), unblocking the reader.
    fn hang_up(&self) {
        if let Ok(writer) = self.writer.lock() {
            let _ = writer.shutdown(std::net::Shutdown::Both);
        }
    }
}

/// Monotonic counters of the serving loop, all exposed by the `stats`
/// verb.
#[derive(Debug, Default)]
struct Counters {
    requests: AtomicU64,
    responses: AtomicU64,
    dropped: AtomicU64,
    quota_rejections: AtomicU64,
    malformed: AtomicU64,
    batches: AtomicU64,
    size_flushes: AtomicU64,
    timer_flushes: AtomicU64,
    clients_accepted: AtomicU64,
    clients_gone: AtomicU64,
    ingest_batches: AtomicU64,
    ingest_edges: AtomicU64,
}

/// State shared by the acceptor, the readers and the dispatcher.
struct Shared {
    /// The live engine. Query batches and stats snapshots take the read
    /// half; only the dispatcher's ingest application takes the write
    /// half, so queries never observe a graph mid-mutation. Never acquired
    /// while holding the admission lock ([`collect_batch`] returns first).
    engine: RwLock<QueryEngine>,
    config: ServerConfig,
    path: PathBuf,
    admission: Mutex<VecDeque<Pending>>,
    admit_cv: Condvar,
    shutdown: AtomicBool,
    totals: Mutex<BatchStats>,
    counters: Counters,
    clients: Mutex<Vec<Arc<ClientSlot>>>,
    readers: Mutex<Vec<JoinHandle<()>>>,
}

impl Shared {
    /// Flips the shutdown flag and wakes every thread that could be
    /// parked: the dispatcher (condvar) and the acceptor (a wake-up
    /// connection to our own socket).
    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Notify while holding the admission lock: without it the
        // dispatcher could check the flag, then park — missing this
        // notification — and sleep out a whole admission window before
        // draining.
        {
            let _queue = self.admission.lock().unwrap_or_else(PoisonError::into_inner);
            self.admit_cv.notify_all();
        }
        let _ = UnixStream::connect(&self.path);
    }

    /// The `stats` verb's reply: every counter as a `key=value` line,
    /// terminated by a bare `end` line.
    fn stats_text(&self) -> String {
        let mut out = String::new();
        let mut push = |key: &str, value: u64| {
            out.push_str(key);
            out.push('=');
            out.push_str(&value.to_string());
            out.push('\n');
        };
        push("admit_max", self.config.admit_max as u64);
        push("admit_window_us", self.config.admit_window.as_micros().min(u64::MAX as u128) as u64);
        push("quota", self.config.quota as u64);
        push("threads", self.config.threads as u64);
        // relaxed: serving counters are monotone statistics; a snapshot
        // slightly out of step across keys is acceptable by design.
        let c = &self.counters;
        push("requests", c.requests.load(Ordering::Relaxed));
        push("responses", c.responses.load(Ordering::Relaxed));
        push("dropped", c.dropped.load(Ordering::Relaxed));
        push("quota_rejections", c.quota_rejections.load(Ordering::Relaxed));
        push("malformed", c.malformed.load(Ordering::Relaxed));
        push("batches", c.batches.load(Ordering::Relaxed));
        push("size_flushes", c.size_flushes.load(Ordering::Relaxed));
        push("timer_flushes", c.timer_flushes.load(Ordering::Relaxed));
        push("clients_accepted", c.clients_accepted.load(Ordering::Relaxed));
        push("clients_gone", c.clients_gone.load(Ordering::Relaxed));
        push("ingest_batches", c.ingest_batches.load(Ordering::Relaxed));
        push("ingest_edges", c.ingest_edges.load(Ordering::Relaxed));
        let totals = *self.totals.lock().unwrap_or_else(PoisonError::into_inner);
        for (key, value) in totals.key_values() {
            push(key, value);
        }
        let engine = self.engine.read().unwrap_or_else(PoisonError::into_inner);
        push("epoch", engine.epoch().value());
        if let Some(cache) = engine.cache_stats() {
            for (key, value) in cache.key_values() {
                push(key, value);
            }
        }
        if let Some(profiles) = engine.profile_cache_stats() {
            for (key, value) in profiles.key_values() {
                push(key, value);
            }
        }
        drop(engine);
        out.push_str("end");
        out
    }

    fn report(&self) -> ServerReport {
        // relaxed: final-report counter reads; see `stats_text`.
        ServerReport {
            totals: *self.totals.lock().unwrap_or_else(PoisonError::into_inner),
            batches: self.counters.batches.load(Ordering::Relaxed),
            requests: self.counters.requests.load(Ordering::Relaxed),
            responses: self.counters.responses.load(Ordering::Relaxed),
            dropped: self.counters.dropped.load(Ordering::Relaxed),
            quota_rejections: self.counters.quota_rejections.load(Ordering::Relaxed),
            malformed: self.counters.malformed.load(Ordering::Relaxed),
        }
    }
}

/// The resident server: binds the socket and owns the serving threads.
///
/// [`Server::bind`] returns a [`ServerHandle`]; the server runs until a
/// client sends the `shutdown` verb or the embedder calls
/// [`ServerHandle::shutdown`], after which [`ServerHandle::join`] reaps
/// every thread, unlinks the socket and returns the final
/// [`ServerReport`].
pub struct Server;

impl Server {
    /// Binds `path` and starts serving `engine` with the given admission
    /// configuration.
    ///
    /// A stale socket file at `path` (e.g. from a killed process) is
    /// unlinked first if nothing is listening on it. Fails if another
    /// listener is alive on the path or the path cannot be bound.
    pub fn bind(
        engine: QueryEngine,
        path: impl AsRef<Path>,
        config: ServerConfig,
    ) -> std::io::Result<ServerHandle> {
        let path = path.as_ref().to_path_buf();
        let listener = match UnixListener::bind(&path) {
            Ok(listener) => listener,
            Err(e) if e.kind() == std::io::ErrorKind::AddrInUse => {
                if UnixStream::connect(&path).is_ok() {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::AddrInUse,
                        format!("another server is listening on {}", path.display()),
                    ));
                }
                std::fs::remove_file(&path)?;
                UnixListener::bind(&path)?
            }
            Err(e) => return Err(e),
        };
        let config = ServerConfig {
            admit_max: config.admit_max.max(1),
            admit_window: config.admit_window.max(Duration::from_micros(50)),
            quota: config.quota.max(1),
            threads: config.threads.max(1),
        };
        let shared = Arc::new(Shared {
            engine: RwLock::new(engine),
            config,
            path: path.clone(),
            admission: Mutex::new(VecDeque::new()),
            admit_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            totals: Mutex::new(BatchStats::default()),
            counters: Counters::default(),
            clients: Mutex::new(Vec::new()),
            readers: Mutex::new(Vec::new()),
        });
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("tspg-acceptor".into())
                .spawn(move || acceptor_loop(&shared, &listener))?
        };
        let dispatcher = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("tspg-dispatcher".into())
                .spawn(move || dispatcher_loop(&shared))?
        };
        Ok(ServerHandle { shared, acceptor: Some(acceptor), dispatcher: Some(dispatcher) })
    }
}

/// Handle of a running [`Server`]: shutdown trigger, stats snapshot and
/// the join/teardown path.
pub struct ServerHandle {
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    dispatcher: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// Requests a graceful shutdown (equivalent to a client sending the
    /// `shutdown` verb): the admission queue is drained and answered, then
    /// every thread exits. Idempotent.
    pub fn shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// The `stats` verb's text, snapshotted without a protocol round trip
    /// (for embedders and tests).
    pub fn stats_text(&self) -> String {
        self.shared.stats_text()
    }

    /// Blocks until the server has shut down, reaps every thread, unlinks
    /// the socket and returns the final accounting.
    ///
    /// Without a prior [`ServerHandle::shutdown`] (or a client `shutdown`
    /// verb) this blocks indefinitely — that is exactly what the
    /// `tspg-server` binary does after binding.
    pub fn join(mut self) -> ServerReport {
        // The dispatcher exits once shutdown is flagged and the queue is
        // drained; only then are client connections torn down, so every
        // accepted request gets its answer first.
        if let Some(dispatcher) = self.dispatcher.take() {
            let _ = dispatcher.join();
        }
        {
            let clients = self.shared.clients.lock().unwrap_or_else(PoisonError::into_inner);
            for client in clients.iter() {
                client.hang_up();
            }
        }
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        let readers: Vec<_> =
            self.shared.readers.lock().unwrap_or_else(PoisonError::into_inner).drain(..).collect();
        for reader in readers {
            // tspg-lint: allow(lock-order) — resolution artifact: this is `JoinHandle::join`, not `Server::join`, and the `readers` guard above is a temporary released at the collect's `;`
            let _ = reader.join();
        }
        let _ = std::fs::remove_file(&self.shared.path);
        self.shared.report()
    }
}

/// Accept loop: one reader thread per connection until shutdown.
fn acceptor_loop(shared: &Arc<Shared>, listener: &UnixListener) {
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let Ok(writer) = stream.try_clone() else { continue };
        // relaxed: serving counters are statistics only (see `stats_text`).
        shared.counters.clients_accepted.fetch_add(1, Ordering::Relaxed);
        let slot = Arc::new(ClientSlot {
            writer: Mutex::new(writer),
            in_flight: AtomicUsize::new(0),
            gone: AtomicBool::new(false),
        });
        shared.clients.lock().unwrap_or_else(PoisonError::into_inner).push(Arc::clone(&slot));
        let reader_shared = Arc::clone(shared);
        let spawned = std::thread::Builder::new()
            .name("tspg-reader".into())
            .spawn(move || reader_loop(&reader_shared, &slot, stream));
        if let Ok(handle) = spawned {
            shared.readers.lock().unwrap_or_else(PoisonError::into_inner).push(handle);
        }
    }
}

/// Per-connection loop: parse request lines, enforce the quota, enqueue
/// queries, answer control verbs inline.
fn reader_loop(shared: &Arc<Shared>, slot: &Arc<ClientSlot>, stream: UnixStream) {
    let reader = BufReader::new(stream);
    // Only a real disconnect (EOF / read error) marks the slot gone. A
    // reader that stops because its client sent the `shutdown` verb must
    // NOT: that connection is alive and still owed its drained answers.
    let mut disconnected = true;
    for line in reader.lines() {
        let Ok(line) = line else { break };
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        // relaxed: serving counters are statistics only (see `stats_text`).
        shared.counters.requests.fetch_add(1, Ordering::Relaxed);
        match protocol::parse_request(line) {
            Ok(protocol::Request::Query { id, query }) => {
                admit(shared, slot, Some(id), |client, enqueued| {
                    Pending::Query(PendingQuery { client, id, query, enqueued })
                });
            }
            Ok(protocol::Request::Ingest { edges }) => {
                // Ingests ride the same FIFO queue and the same quota as
                // queries: a pipelined mutation is "in flight" until its
                // acknowledgement is written, and a greedy feeder must not
                // starve the admission queue either.
                admit(shared, slot, None, |client, enqueued| {
                    Pending::Ingest(PendingIngest { client, edges, enqueued })
                });
            }
            Ok(protocol::Request::Stats) => {
                slot.write_line(shared.stats_text());
            }
            Ok(protocol::Request::Ping) => {
                slot.write_line("pong".to_owned());
            }
            Ok(protocol::Request::Shutdown) => {
                slot.write_line("bye".to_owned());
                shared.begin_shutdown();
                disconnected = false;
                break;
            }
            Err((id, message)) => {
                // A malformed line is the client's bug, not a server
                // failure: reply (tagged when the id survived parsing) and
                // keep serving the connection.
                shared.counters.malformed.fetch_add(1, Ordering::Relaxed);
                slot.write_line(protocol::format_error(id, &message));
            }
        }
    }
    if disconnected {
        slot.gone.store(true, Ordering::Release);
        shared.counters.clients_gone.fetch_add(1, Ordering::Relaxed);
    }
}

/// Enqueues one request built by `pending` from its client and enqueue
/// time, or answers a quota error tagged with `id` (a query's id; ingests
/// carry none) when the client already has its quota in flight.
fn admit(
    shared: &Shared,
    slot: &Arc<ClientSlot>,
    id: Option<u64>,
    pending: impl FnOnce(Arc<ClientSlot>, Instant) -> Pending,
) {
    if slot.in_flight.load(Ordering::Acquire) >= shared.config.quota {
        // relaxed: serving counters are statistics only (see `stats_text`).
        shared.counters.quota_rejections.fetch_add(1, Ordering::Relaxed);
        slot.write_line(protocol::format_error(
            id,
            &format!("quota exceeded ({} requests in flight)", shared.config.quota),
        ));
        return;
    }
    slot.in_flight.fetch_add(1, Ordering::AcqRel);
    let pending = pending(Arc::clone(slot), Instant::now());
    let mut queue = shared.admission.lock().unwrap_or_else(PoisonError::into_inner);
    queue.push_back(pending);
    // Notify while still holding the admission lock (see `begin_shutdown`):
    // dropping the guard first would let the dispatcher check its predicate
    // and park between our push and this wakeup, losing the notification.
    shared.admit_cv.notify_all();
}

/// One homogeneous run drained from the admission queue: either a query
/// batch for the engine or a run of edge-batch mutations to apply at this
/// batch boundary.
enum Collected {
    Queries(Vec<PendingQuery>),
    Ingests(Vec<PendingIngest>),
}

/// Dispatcher loop: wait for a flush trigger, drain a homogeneous run,
/// run queries through the engine (read lock) or apply mutations (write
/// lock), stream the answers back.
fn dispatcher_loop(shared: &Arc<Shared>) {
    loop {
        let batch = match collect_batch(shared) {
            Collected::Ingests(batch) => {
                apply_ingests(shared, batch);
                continue;
            }
            Collected::Queries(batch) => batch,
        };
        if batch.is_empty() {
            // Shutdown is flagged and the queue is drained.
            break;
        }
        let queries: Vec<QuerySpec> = batch.iter().map(|p| p.query).collect();
        // Hold the read lock across the whole batch: the graph every query
        // of this batch sees is the one collect_batch's boundary admitted.
        let engine = shared.engine.read().unwrap_or_else(PoisonError::into_inner);
        let (results, stats) = engine.run_batch_with_stats(&queries, shared.config.threads);
        drop(engine);
        shared.totals.lock().unwrap_or_else(PoisonError::into_inner).merge(&stats);
        // relaxed: serving counters are statistics only (see `stats_text`).
        shared.counters.batches.fetch_add(1, Ordering::Relaxed);
        for (pending, result) in batch.iter().zip(results) {
            pending.client.in_flight.fetch_sub(1, Ordering::AcqRel);
            // A client that disconnected mid-batch gets its remaining
            // answers dropped; the batch (and every other client's
            // answers) is unaffected.
            if pending.client.gone.load(Ordering::Acquire) {
                shared.counters.dropped.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            if pending.client.write_line(protocol::format_result(pending.id, &result)) {
                shared.counters.responses.fetch_add(1, Ordering::Relaxed);
            } else {
                shared.counters.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// Applies a run of pending edge batches under the engine write lock, then
/// writes the acknowledgements with the lock released (a slow client write
/// must not stall queries behind the mutation).
fn apply_ingests(shared: &Arc<Shared>, batch: Vec<PendingIngest>) {
    let mut acks: Vec<(Arc<ClientSlot>, u64, u64)> = Vec::with_capacity(batch.len());
    {
        let mut engine = shared.engine.write().unwrap_or_else(PoisonError::into_inner);
        for pending in batch {
            let epoch = engine.ingest(&pending.edges);
            // relaxed: serving counters are statistics only (see
            // `stats_text`).
            shared.counters.ingest_batches.fetch_add(1, Ordering::Relaxed);
            shared.counters.ingest_edges.fetch_add(pending.edges.len() as u64, Ordering::Relaxed);
            acks.push((pending.client, epoch.value(), pending.edges.len() as u64));
        }
    }
    for (client, epoch, edges) in acks {
        client.in_flight.fetch_sub(1, Ordering::AcqRel);
        if client.gone.load(Ordering::Acquire)
            || !client.write_line(protocol::format_ingested(epoch, edges))
        {
            // relaxed: serving counters are statistics only (see
            // `stats_text`).
            shared.counters.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Blocks until a flush trigger fires, then drains one homogeneous run
/// from the queue front: consecutive ingests are returned immediately
/// (each mutation run is its own batch boundary), consecutive queries once
/// the size or timer trigger fires — or at once when an ingest is queued
/// behind them, since the mutation cannot apply until the queries ahead of
/// it have run. Returns an empty query batch only once shutdown is flagged
/// and the queue is empty, which ends the dispatcher.
///
/// During shutdown the queue still drains in homogeneous runs (not one
/// final mixed batch): queries accepted before a pending mutation must run
/// against the pre-mutation graph.
fn collect_batch(shared: &Arc<Shared>) -> Collected {
    let config = &shared.config;
    // relaxed: flush-trigger tallies are statistics only (see `stats_text`).
    let mut queue = shared.admission.lock().unwrap_or_else(PoisonError::into_inner);
    loop {
        let shutting_down = shared.shutdown.load(Ordering::SeqCst);
        if matches!(queue.front(), Some(Pending::Ingest(_))) {
            let mut batch = Vec::new();
            while matches!(queue.front(), Some(Pending::Ingest(_))) {
                if let Some(Pending::Ingest(ingest)) = queue.pop_front() {
                    batch.push(ingest);
                }
            }
            return Collected::Ingests(batch);
        }
        // The front run is all queries (possibly the whole queue).
        let run = queue.iter().take_while(|p| matches!(p, Pending::Query(_))).count();
        let boundary_behind = run < queue.len();
        if shutting_down {
            // Drain the whole front run so every accepted request is
            // answered before the socket goes away (the loop comes back
            // for whatever sits behind the boundary).
            let batch = drain_queries(&mut queue, run);
            return Collected::Queries(batch);
        }
        match queue.front() {
            Some(front) => {
                let age = front.enqueued().elapsed();
                if run >= config.admit_max || boundary_behind || age >= config.admit_window {
                    if run >= config.admit_max || boundary_behind {
                        // An ingest waiting behind the run counts as a size
                        // flush: the boundary, not the timer, forced it.
                        shared.counters.size_flushes.fetch_add(1, Ordering::Relaxed);
                    } else {
                        shared.counters.timer_flushes.fetch_add(1, Ordering::Relaxed);
                    }
                    let take = run.min(config.admit_max);
                    return Collected::Queries(drain_queries(&mut queue, take));
                }
                let remaining = config.admit_window - age;
                let (guard, _) = shared
                    .admit_cv
                    .wait_timeout(queue, remaining)
                    .unwrap_or_else(PoisonError::into_inner);
                queue = guard;
            }
            None => {
                // Nothing pending: sleep until a reader enqueues or shutdown
                // is flagged. Both notify under this lock, so no wake-up is
                // lost between the check above and this wait.
                queue = shared.admit_cv.wait(queue).unwrap_or_else(PoisonError::into_inner);
            }
        }
    }
}

/// Drains up to `take` consecutive queries from the queue front, stopping
/// at the first non-query entry (the caller has already verified the front
/// run is at least `take` queries long, so this drains exactly `take`).
fn drain_queries(queue: &mut VecDeque<Pending>, take: usize) -> Vec<PendingQuery> {
    let mut batch = Vec::with_capacity(take);
    while batch.len() < take && matches!(queue.front(), Some(Pending::Query(_))) {
        if let Some(Pending::Query(query)) = queue.pop_front() {
            batch.push(query);
        }
    }
    batch
}

#[cfg(test)]
mod tests {
    use super::*;
    use tspg_graph::fixtures::{figure1_graph, figure1_query};
    use tspg_graph::TimeInterval;

    fn temp_socket(tag: &str) -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let unique = COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("tspg_{tag}_{}_{unique}.sock", std::process::id()))
    }

    fn connect(path: &Path) -> (BufReader<UnixStream>, UnixStream) {
        let stream = UnixStream::connect(path).expect("connect");
        let reader = BufReader::new(stream.try_clone().expect("clone"));
        (reader, stream)
    }

    fn send(stream: &mut UnixStream, line: &str) {
        stream.write_all(line.as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
        stream.flush().unwrap();
    }

    fn read_line(reader: &mut BufReader<UnixStream>) -> String {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        line.trim_end().to_string()
    }

    #[test]
    fn bind_query_stats_shutdown_round_trip() {
        let path = temp_socket("lib_roundtrip");
        let engine = QueryEngine::new(figure1_graph());
        let config = ServerConfig {
            admit_max: 4,
            admit_window: Duration::from_millis(1),
            ..ServerConfig::default()
        };
        let handle = Server::bind(engine, &path, config).unwrap();
        let (s, t, w) = figure1_query();

        let (mut reader, mut stream) = connect(&path);
        send(&mut stream, "ping");
        assert_eq!(read_line(&mut reader), "pong");
        send(&mut stream, &protocol::format_query(9, &QuerySpec::new(s, t, w)));
        let reply = protocol::parse_response(&read_line(&mut reader)).unwrap();
        let protocol::Response::Result(payload) = reply else { panic!("want result: {reply:?}") };
        assert_eq!(payload.id, 9);
        assert_eq!(payload.edges.len(), 4, "Fig. 1(c) has four edges");

        let stats = handle.stats_text();
        assert!(stats.contains("queries=1"), "{stats}");
        assert!(stats.contains("cache_hits=0"), "{stats}");
        assert!(stats.ends_with("end"), "{stats}");

        send(&mut stream, "shutdown");
        assert_eq!(read_line(&mut reader), "bye");
        let report = handle.join();
        assert_eq!(report.totals.queries, 1);
        assert_eq!(report.responses, 1);
        assert!(!path.exists(), "socket must be unlinked on shutdown");
    }

    #[test]
    fn degenerate_and_unreachable_queries_are_answered_empty() {
        let path = temp_socket("lib_degenerate");
        let handle =
            Server::bind(QueryEngine::new(figure1_graph()), &path, ServerConfig::default())
                .unwrap();
        let (s, t, w) = figure1_query();
        let (mut reader, mut stream) = connect(&path);
        for (id, q) in [(0, QuerySpec::new(s, s, w)), (1, QuerySpec::new(t, s, w))].into_iter() {
            send(&mut stream, &protocol::format_query(id, &q));
            let reply = protocol::parse_response(&read_line(&mut reader)).unwrap();
            let protocol::Response::Result(payload) = reply else { panic!("{reply:?}") };
            assert_eq!(payload.id, id);
            assert!(payload.edges.is_empty());
        }
        handle.shutdown();
        handle.join();
    }

    #[test]
    fn stale_socket_file_is_reclaimed_and_live_one_is_refused() {
        let path = temp_socket("lib_stale");
        // A stale file nothing listens on: bind reclaims it.
        drop(UnixListener::bind(&path).unwrap());
        assert!(path.exists());
        let handle =
            Server::bind(QueryEngine::new(figure1_graph()), &path, ServerConfig::default())
                .unwrap();
        // A second server on the same live path must be refused.
        let Err(err) =
            Server::bind(QueryEngine::new(figure1_graph()), &path, ServerConfig::default())
        else {
            panic!("second bind on a live socket must fail");
        };
        assert_eq!(err.kind(), std::io::ErrorKind::AddrInUse);
        handle.shutdown();
        handle.join();
    }

    #[test]
    fn ingest_applies_at_a_batch_boundary_and_bumps_the_epoch() {
        let path = temp_socket("lib_ingest");
        let config = ServerConfig {
            admit_max: 4,
            admit_window: Duration::from_millis(1),
            ..ServerConfig::default()
        };
        let handle = Server::bind(QueryEngine::new(figure1_graph()), &path, config).unwrap();
        let (s, t, w) = figure1_query();
        let (mut reader, mut stream) = connect(&path);

        send(&mut stream, &protocol::format_query(0, &QuerySpec::new(s, t, w)));
        let reply = protocol::parse_response(&read_line(&mut reader)).unwrap();
        let protocol::Response::Result(before) = reply else { panic!("{reply:?}") };

        // A direct s→t edge inside the window always joins the tspG, so the
        // re-queried answer is guaranteed to change.
        let delta = [tspg_graph::TemporalEdge::new(s, t, 5)];
        send(&mut stream, &protocol::format_ingest(&delta));
        let reply = protocol::parse_response(&read_line(&mut reader)).unwrap();
        assert_eq!(reply, protocol::Response::Ingested { epoch: 1, edges: 1 });

        send(&mut stream, &protocol::format_query(1, &QuerySpec::new(s, t, w)));
        let reply = protocol::parse_response(&read_line(&mut reader)).unwrap();
        let protocol::Response::Result(after) = reply else { panic!("{reply:?}") };
        assert_ne!(before.edges, after.edges, "the ingested edge must change the answer");
        assert!(after.edges.contains(&delta[0]));

        let stats = handle.stats_text();
        assert!(stats.contains("epoch=1"), "{stats}");
        assert!(stats.contains("ingest_batches=1"), "{stats}");
        assert!(stats.contains("ingest_edges=1"), "{stats}");

        send(&mut stream, "shutdown");
        assert_eq!(read_line(&mut reader), "bye");
        handle.join();
    }

    #[test]
    fn answers_for_one_client_arrive_in_request_order() {
        let path = temp_socket("lib_order");
        let config = ServerConfig {
            admit_max: 3,
            admit_window: Duration::from_millis(1),
            ..ServerConfig::default()
        };
        let handle = Server::bind(QueryEngine::new(figure1_graph()), &path, config).unwrap();
        let (s, t, _) = figure1_query();
        let (mut reader, mut stream) = connect(&path);
        // A pipelined burst spanning several admission batches.
        for id in 0..10u64 {
            let begin = 2 + (id as i64 % 3);
            let q = QuerySpec::new(s, t, TimeInterval::new(begin, begin + 4));
            send(&mut stream, &protocol::format_query(id, &q));
        }
        for want in 0..10u64 {
            let reply = protocol::parse_response(&read_line(&mut reader)).unwrap();
            let protocol::Response::Result(payload) = reply else { panic!("{reply:?}") };
            assert_eq!(payload.id, want, "FIFO admission must preserve per-client order");
        }
        handle.shutdown();
        let report = handle.join();
        assert_eq!(report.totals.queries, 10);
        assert!(report.batches >= 2, "a 10-burst through admit_max=3 spans batches");
    }
}
