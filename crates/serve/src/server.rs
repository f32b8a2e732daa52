//! The service: accept loop, pipelined connections, grouped admission,
//! worker pool, bounded caches.
//!
//! ```text
//!   accept thread ──► connection threads (one per client; exited ones reaped on accept)
//!                          │  every frame: one handler thread, at most
//!                          │  MAX_IN_FLIGHT per connection
//!                          │  `run` = one-member `batch`
//!                          │  memo (bounded LRU of encoded payloads) / store  ──► hit
//!                          │  join single-flight table
//!                          ▼
//!                    bounded queue of (dataset, algo, scale) GROUP jobs
//!                          │  compatible jobs coalesce into one slot
//!                          │  full queue sheds `busy`
//!                          ▼
//!                    worker pool (`jobs` workers, serial replays)
//!                          │  graph/trace registries (build once)
//!                          │  one trace per group, one replay per spec
//!                          │  persist, encode once, memoise, retire each flight
//!                          ▼
//!                    flight completion ──► every waiter responds
//! ```
//!
//! A payload is encoded once, when a worker computes it or a store hit
//! loads it. The memo, the flight and every response that carries it
//! share that text, and a response frame splices it in place
//! ([`Json::write_spliced`]), so answering a warm request builds no
//! payload tree and encodes no payload.
//!
//! The accept loop never does work and the queue never grows past its
//! configured depth, so overload degrades to fast structured `busy`
//! responses instead of memory growth or connect timeouts. A connection
//! at [`MAX_IN_FLIGHT`] stops reading, so TCP backpressure throttles a
//! client that pipelines faster than the server answers, and a client
//! that stops reading is dropped once a response write has made no
//! progress for [`WRITE_TIMEOUT`]. Admission is
//! at **group** granularity: `batch_request` gathers a batch's cold runs
//! into jobs keyed by `(dataset, algo, scale)`, and the queue merges a job
//! into a queued one with the same key instead of giving it a slot. A
//! worker builds the job's graph and its
//! [`GroupTrace`] once and replays every member on that trace: the one
//! compute path of every run, with the batch tools' store keys. Shutdown
//! (`shutdown` request) closes the queue, stops accepting, and drains:
//! every admitted request still receives its response.

use crate::flight::{Flight, FlightResult, Flights, Registry, Ticket};
use crate::memo::Memo;
use crate::proto::{
    self, Request, RequestFrame, Response, ResponseFrame, RunRequest, PROTO_V2, STATS_SCHEMA,
};
use crate::wire::{self, Frame};
use omega_bench::session::{AlgoKey, ExperimentSpec, GroupTrace, Variant};
use omega_bench::{run_report_to_json, ExperimentStore, Json};
use omega_core::runner::{exec_for, RunReport};
use omega_core::OmegaError;
use omega_graph::datasets::{Dataset, DatasetScale};
use omega_graph::CsrGraph;
use omega_sim::obs;
use std::collections::{HashMap, VecDeque};
use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard};
use std::thread::{JoinHandle, ThreadId};
use std::time::Duration;

/// How the server is sized and where it listens.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks a free port (see
    /// [`ServerHandle::addr`] for the actual one).
    pub addr: String,
    /// Worker-pool size: how many group jobs compute at once, like
    /// `Session::jobs`. Each replay is serial. At most [`MAX_WORKERS`].
    pub jobs: usize,
    /// Admission-queue capacity, in **group jobs**. A full queue sheds
    /// with `busy`; a request compatible with an already-queued group
    /// joins it without consuming a slot.
    pub queue_depth: usize,
    /// Response-memo capacity in entries (bounded LRU; evicted entries
    /// recompute byte-identically from the store).
    pub memo_entries: usize,
    /// Persistent experiment store shared with the batch tools.
    pub store: Option<PathBuf>,
    /// Test hook: artificial delay inside each computed replay, to make
    /// in-flight windows wide enough for deterministic concurrency
    /// tests on any machine.
    pub job_delay_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            jobs: 1,
            queue_depth: 8,
            memo_entries: 256,
            store: None,
            job_delay_ms: 0,
        }
    }
}

/// Largest `jobs` that [`serve`] accepts. The pool's threads start up
/// front and each replay is serial, so this sits far above any host's
/// `available_parallelism()`; a larger request is refused rather than
/// asked of the OS.
pub const MAX_WORKERS: usize = 256;

impl ServeConfig {
    /// Actual worker-pool size: `jobs`, at least one.
    pub fn effective_workers(&self) -> usize {
        self.jobs.max(1)
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// One spec awaiting computation inside a group job.
struct JobEntry {
    fp: u64,
    spec: ExperimentSpec,
}

/// One admitted unit of work: every queued spec sharing this
/// `(dataset, algo, scale)` key — they share one graph and one
/// functional trace, so the queue holds them as a single slot.
struct Job {
    dataset: Dataset,
    algo: AlgoKey,
    scale: DatasetScale,
    entries: Vec<JobEntry>,
}

impl Job {
    fn key(&self) -> (Dataset, AlgoKey, DatasetScale) {
        (self.dataset, self.algo, self.scale)
    }

    fn label(&self) -> String {
        format!(
            "{}-{}@{}(×{})",
            self.algo.name(),
            self.dataset.code(),
            self.scale.code(),
            self.entries.len()
        )
    }
}

enum Admission {
    /// A new group slot was taken.
    Queued,
    /// Coalesced into an already-queued compatible group (no new slot).
    Grouped,
    /// Occupancy at rejection time.
    Full(usize),
    Closed,
}

/// Fixed-capacity FIFO of group jobs feeding the worker pool. `close`
/// stops intake but lets workers drain what was already admitted.
struct Queue {
    inner: Mutex<(VecDeque<Job>, bool)>,
    cv: Condvar,
    /// The effective capacity (the configured depth, at least one): what
    /// `busy` and `stats` report as the limit.
    cap: usize,
}

impl Queue {
    fn new(cap: usize) -> Queue {
        Queue {
            inner: Mutex::new((VecDeque::new(), false)),
            cv: Condvar::new(),
            cap: cap.max(1),
        }
    }

    /// Admits `job`. A queued job with the same key absorbs its entries
    /// without consuming a slot (even when the queue is at capacity —
    /// coalescing never increases the job count); otherwise a free slot
    /// queues it as a new group job.
    fn try_admit(&self, job: Job) -> Admission {
        let mut inner = lock(&self.inner);
        if inner.1 {
            return Admission::Closed;
        }
        if let Some(queued) = inner.0.iter_mut().find(|j| j.key() == job.key()) {
            queued.entries.extend(job.entries);
            return Admission::Grouped;
        }
        if inner.0.len() >= self.cap {
            return Admission::Full(inner.0.len());
        }
        inner.0.push_back(job);
        self.cv.notify_one();
        Admission::Queued
    }

    /// Blocks for the next job; `None` once closed **and** drained.
    fn pop(&self) -> Option<Job> {
        let mut inner = lock(&self.inner);
        loop {
            if let Some(job) = inner.0.pop_front() {
                return Some(job);
            }
            if inner.1 {
                return None;
            }
            inner = self.cv.wait(inner).unwrap_or_else(|e| e.into_inner());
        }
    }

    fn close(&self) {
        lock(&self.inner).1 = true;
        self.cv.notify_all();
    }

    fn depth(&self) -> usize {
        lock(&self.inner).0.len()
    }
}

/// Live service counters, mirrored into the obs layer (when profiling
/// is on) under `serve.*` names.
#[derive(Default)]
struct Counters {
    requests: AtomicU64,
    batches: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    coalesced: AtomicU64,
    grouped: AtomicU64,
    shed: AtomicU64,
    errors: AtomicU64,
    inflight: AtomicU64,
}

impl Counters {
    fn bump(&self, which: &'static str, cell: &AtomicU64) {
        cell.fetch_add(1, Ordering::Relaxed);
        obs::counter_add(which, 1);
    }
}

struct ServerState {
    config: ServeConfig,
    addr: SocketAddr,
    store: Option<ExperimentStore>,
    graphs: Registry<(Dataset, DatasetScale), Result<CsrGraph, String>>,
    traces: Registry<(Dataset, AlgoKey, DatasetScale), GroupTrace>,
    /// Response payloads by fingerprint — the bounded in-process memo.
    /// It holds each payload's encoded text, which every response that
    /// carries it splices as is, so warm responses are byte-identical to
    /// the cold ones that filled it; evicted entries recompute
    /// byte-identically via the store.
    memo: Memo,
    flights: Flights,
    queue: Queue,
    counters: Counters,
    shutting_down: AtomicBool,
}

impl ServerState {
    fn draining(&self) -> bool {
        self.shutting_down.load(Ordering::Relaxed)
    }
}

/// A running server. Dropping the handle does **not** stop the server;
/// send a `shutdown` request (or use [`Client::shutdown`]) and then
/// [`ServerHandle::wait`].
///
/// [`Client::shutdown`]: crate::client::Client::shutdown
pub struct ServerHandle {
    state: Arc<ServerState>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The actually bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.state.addr
    }

    /// Blocks until the server has fully drained and every thread has
    /// exited. Only returns after a `shutdown` request was processed.
    pub fn wait(mut self) {
        // The accept thread joins every connection thread before it exits.
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Binds, spawns the accept loop and worker pool, and returns.
///
/// # Errors
///
/// [`OmegaError::InvalidConfig`] if `jobs` exceeds [`MAX_WORKERS`],
/// before anything is bound or spawned; otherwise the bind or store
/// error, or a failed thread spawn.
pub fn serve(config: ServeConfig) -> Result<ServerHandle, OmegaError> {
    if config.jobs > MAX_WORKERS {
        return Err(OmegaError::InvalidConfig(format!(
            "jobs {} exceeds the worker-pool bound of {MAX_WORKERS}",
            config.jobs
        )));
    }
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let store = match &config.store {
        Some(root) => Some(ExperimentStore::open(root)?),
        None => None,
    };
    let queue = Queue::new(config.queue_depth);
    let memo = Memo::new(config.memo_entries);
    let state = Arc::new(ServerState {
        addr,
        store,
        graphs: Registry::new(),
        traces: Registry::new(),
        memo,
        flights: Flights::new(),
        queue,
        counters: Counters::default(),
        shutting_down: AtomicBool::new(false),
        config,
    });
    let mut handle = ServerHandle {
        state,
        accept: None,
        workers: Vec::new(),
    };
    if let Err(e) = start(&mut handle, listener) {
        // The workers that did start exit once the empty queue closes.
        handle.state.queue.close();
        handle.wait();
        return Err(OmegaError::Io(e));
    }
    Ok(handle)
}

/// Spawns the worker pool, then the accept thread.
fn start(handle: &mut ServerHandle, listener: TcpListener) -> std::io::Result<()> {
    for i in 0..handle.state.config.effective_workers() {
        let state = Arc::clone(&handle.state);
        let worker = std::thread::Builder::new()
            .name(format!("omega-serve-worker-{i}"))
            .spawn(move || worker_loop(&state))?;
        handle.workers.push(worker);
    }
    let state = Arc::clone(&handle.state);
    let accept = std::thread::Builder::new()
        .name("omega-serve-accept".to_string())
        .spawn(move || accept_loop(listener, &state))?;
    handle.accept = Some(accept);
    Ok(())
}

/// Accepts until shutdown, one thread per connection. Each accept
/// first joins the connections that ended, so their stacks go back now
/// rather than at shutdown; the rest are joined once the loop exits.
fn accept_loop(listener: TcpListener, state: &Arc<ServerState>) {
    let mut conns: Vec<JoinHandle<()>> = Vec::new();
    for stream in listener.incoming() {
        if state.draining() {
            break;
        }
        let Ok(stream) = stream else { continue };
        for ended in conns.extract_if(.., |c| c.is_finished()) {
            let _ = ended.join();
        }
        let state = Arc::clone(state);
        let handle = std::thread::Builder::new()
            .name("omega-serve-conn".to_string())
            .spawn(move || connection_loop(&state, stream));
        match handle {
            Ok(h) => conns.push(h),
            Err(e) => eprintln!("omega-serve: failed to spawn connection thread: {e}"),
        }
    }
    for conn in conns {
        let _ = conn.join();
    }
}

/// The id to echo on the error reply to a frame that failed to parse,
/// so the peer can correlate it; `None` when the tag is wrong or the id
/// is unreadable.
fn error_id(doc: &Json) -> Option<u64> {
    if doc.get("proto").and_then(Json::as_str) != Some(PROTO_V2) {
        return None;
    }
    doc.get("id").and_then(Json::as_u64)
}

/// How long a response write may go without the peer accepting a byte.
/// Past it the connection is shut down, so a client that stops reading
/// cannot hold its handlers, or a drain, for longer.
pub const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// One run's response: a `null` slot for its payload, which moves into
/// `payloads`, or its error.
fn run_response(result: FlightResult, payloads: &mut Vec<Arc<str>>) -> Response {
    match result {
        Ok(payload) => {
            payloads.push(payload);
            Response::Ok(Json::Null)
        }
        Err(e) => Response::from_error(&e),
    }
}

/// Writes one response frame. It is encoded before the writer lock is
/// taken, so a handler queued behind a slow reader holds its response as
/// bytes. `response` has a `null` in place of each run payload (and no
/// other `null`); `payloads` holds their encoded text, in document order,
/// which is spliced there, so no handler builds a payload tree. A failed
/// encode or write shuts the socket down both ways: the handlers still
/// queued on the writer then fail at once instead of each waiting out
/// [`WRITE_TIMEOUT`], and the read loop ends.
fn write_response(
    writer: &Mutex<TcpStream>,
    id: Option<u64>,
    response: Response,
    payloads: &[Arc<str>],
) -> bool {
    let doc = proto::response_frame_to_json(ResponseFrame { id, response });
    let mut payloads = payloads.iter();
    let frame = wire::encode_frame_spliced(&doc, |v| match v {
        Json::Null => payloads.next().map(|p| &**p),
        _ => None,
    });
    let mut stream = lock(writer);
    let written = frame.is_ok_and(|bytes| {
        stream
            .write_all(&bytes)
            .and_then(|()| stream.flush())
            .is_ok()
    });
    if !written {
        let _ = stream.shutdown(Shutdown::Both);
    }
    written
}

/// Handler threads one connection may have at once. At the bound the
/// connection stops reading, so TCP backpressure throttles a client
/// that pipelines faster than the server answers; a well-formed request
/// is never refused for it.
pub const MAX_IN_FLIGHT: usize = 32;

/// Reports a handler's end to its connection loop, however it ends, by
/// the id of the thread it ran on.
struct Done(mpsc::Sender<ThreadId>);

impl Drop for Done {
    fn drop(&mut self) {
        let _ = self.0.send(std::thread::current().id());
    }
}

/// One connection. Every request frame goes to a handler thread of its
/// own, and the shared writer lock keeps response frames whole. Up to
/// [`MAX_IN_FLIGHT`] handlers stay alive and may complete out of order.
/// The scope waits for every handler before the connection thread
/// exits, so `ServerHandle::wait` still observes a full drain.
fn connection_loop(state: &Arc<ServerState>, mut stream: TcpStream) {
    // The read timeout bounds how long an idle connection takes to
    // notice shutdown; it does not bound request handling.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    let _ = stream.set_nodelay(true);
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let writer = Mutex::new(write_half);
    let (done_tx, done_rx) = mpsc::channel();
    std::thread::scope(|scope| {
        // Unjoined handlers by thread id. They are joined, not detached,
        // so the depth bounds threads that are still exiting.
        let mut handlers = HashMap::new();
        loop {
            let frame = wire::read_frame(&mut stream, || state.draining());
            let doc = match frame {
                Ok(Frame::Doc(doc)) => doc,
                Ok(Frame::Eof) | Ok(Frame::Cancelled) => break,
                Ok(Frame::Malformed(e)) => {
                    // The body is not a document, but the framing held:
                    // answer the error and keep reading.
                    state.counters.bump("serve.errors", &state.counters.errors);
                    if !write_response(&writer, None, Response::from_error(&e), &[]) {
                        break;
                    }
                    continue;
                }
                Err(e) => {
                    // Tell the peer what was wrong with its bytes, then
                    // hang up: framing is unrecoverable after an error.
                    let resp = Response::from_error(&e);
                    let _ = write_response(&writer, None, resp, &[]);
                    break;
                }
            };
            let RequestFrame { id, request } = match proto::request_frame_from_json(&doc) {
                Ok(frame) => frame,
                Err(e) => {
                    // The frame was well-formed JSON but not a valid
                    // request — answer the error and keep reading.
                    state.counters.bump("serve.errors", &state.counters.errors);
                    let resp = Response::from_error(&e);
                    if !write_response(&writer, error_id(&doc), resp, &[]) {
                        break;
                    }
                    continue;
                }
            };
            let done = Done(done_tx.clone());
            let writer = &writer;
            let spawned = std::thread::Builder::new()
                .spawn_scoped(scope, move || {
                    let _done = done;
                    let _span = obs::span("serve.request");
                    let (response, payloads) = handle_request(state, &request);
                    write_response(writer, Some(id), response, &payloads);
                })
                .map(|handler| handlers.insert(handler.thread().id(), handler));
            if let Err(e) = spawned {
                state.counters.bump("serve.errors", &state.counters.errors);
                let resp = Response::from_error(&OmegaError::Io(e));
                if !write_response(writer, Some(id), resp, &[]) {
                    break;
                }
            }
            // Join every handler that has ended; at the bound, wait for
            // one to end first. A failed spawn reports this thread.
            loop {
                let ended = if handlers.len() >= MAX_IN_FLIGHT {
                    // `done_tx` is alive, so `recv` always yields.
                    done_rx.recv().ok()
                } else {
                    done_rx.try_recv().ok()
                };
                let Some(ended) = ended else { break };
                if let Some(handler) = handlers.remove(&ended) {
                    let _ = handler.join();
                }
            }
        }
    });
}

/// Answers one request: the response, and the encoded run payloads that
/// [`write_response`] splices into its `null` slots.
fn handle_request(state: &Arc<ServerState>, request: &Request) -> (Response, Vec<Arc<str>>) {
    let c = &state.counters;
    c.bump("serve.requests", &c.requests);
    let mut payloads = Vec::new();
    let response = match request {
        Request::Ping => {
            let mut payload = Json::obj();
            payload.set("pong", Json::Bool(true));
            Response::Ok(payload)
        }
        Request::Stats => Response::Ok(stats_payload(state)),
        Request::Shutdown => {
            begin_shutdown(state);
            let mut payload = Json::obj();
            payload.set("draining", Json::Bool(true));
            Response::Ok(payload)
        }
        // A `run` is a one-member batch, answered without the batch
        // envelope.
        Request::Run(run) => run_response(batch_request(state, &[*run]).remove(0), &mut payloads),
        Request::Batch(runs) => {
            c.bump("serve.batches", &c.batches);
            let results = batch_request(state, runs)
                .into_iter()
                .map(|result| run_response(result, &mut payloads))
                .collect();
            Response::Ok(proto::batch_payload(results))
        }
    };
    (response, payloads)
}

/// A run's response payload, encoded once: the text that the memo, the
/// flight and every response carrying it share.
fn encode_payload(report: &RunReport, spec: ExperimentSpec) -> Arc<str> {
    let mut text = String::new();
    run_report_to_json(report, &spec.system()).write_to(&mut text);
    text.into()
}

/// Memo, then store. A store hit re-enters the memo (possibly evicting
/// something older), which is how evicted entries come back
/// byte-identically.
fn lookup(state: &Arc<ServerState>, fp: u64, run: RunRequest) -> Option<Arc<str>> {
    if let Some(payload) = state.memo.get(fp) {
        return Some(payload);
    }
    let store = state.store.as_ref()?;
    let payload = encode_payload(&store.load_report(fp)?, run.spec);
    state.memo.insert(fp, Arc::clone(&payload));
    Some(payload)
}

/// How one batch member will be resolved.
enum BatchSlot {
    /// Served from memo/store immediately.
    Cached(Arc<str>),
    /// Waiting on a flight (as leader or follower); admission failures
    /// (busy/shutdown) complete the flight, so they resolve here too.
    Waiting(Arc<Flight>),
}

/// Resolves `runs` through memo → store → flight and gives one result
/// per run, in request order: its encoded payload or its error. The
/// cold leaders are admitted as whole `(dataset, algo, scale)` group
/// jobs, in first-seen order, so each group occupies one queue slot and
/// shares one functional trace even on an idle server.
fn batch_request(state: &Arc<ServerState>, runs: &[RunRequest]) -> Vec<FlightResult> {
    let c = &state.counters;
    let mut slots: Vec<BatchSlot> = Vec::with_capacity(runs.len());
    let mut jobs: Vec<Job> = Vec::new();

    for run in runs {
        let fp = run.spec.fingerprint(run.scale);
        if let Some(cached) = lookup(state, fp, *run) {
            c.bump("serve.hits", &c.hits);
            slots.push(BatchSlot::Cached(cached));
            continue;
        }
        let flight = match state.flights.join(fp) {
            Ticket::Follower(flight) => {
                c.bump("serve.coalesced", &c.coalesced);
                flight
            }
            Ticket::Leader(flight) => {
                let (dataset, algo, scale) = (run.spec.dataset, run.spec.algo, run.scale);
                let entry = JobEntry { fp, spec: run.spec };
                match jobs.iter_mut().find(|j| j.key() == (dataset, algo, scale)) {
                    Some(job) => job.entries.push(entry),
                    None => jobs.push(Job {
                        dataset,
                        algo,
                        scale,
                        entries: vec![entry],
                    }),
                }
                flight
            }
        };
        slots.push(BatchSlot::Waiting(flight));
    }

    for job in jobs {
        let fps: Vec<u64> = job.entries.iter().map(|e| e.fp).collect();
        let err = match state.queue.try_admit(job) {
            Admission::Queued => continue,
            Admission::Grouped => {
                for _ in &fps {
                    c.bump("serve.grouped", &c.grouped);
                }
                continue;
            }
            Admission::Full(depth) => {
                for _ in &fps {
                    c.bump("serve.shed", &c.shed);
                }
                OmegaError::Busy {
                    queue_depth: depth,
                    queue_limit: state.queue.cap,
                }
            }
            Admission::Closed => {
                for _ in &fps {
                    c.bump("serve.errors", &c.errors);
                }
                OmegaError::ShuttingDown
            }
        };
        let err = Arc::new(err);
        for fp in fps {
            state.flights.complete(fp, Err(Arc::clone(&err)));
        }
    }

    // Collect: error outcomes (busy included) stay per-spec so one shed
    // group does not poison the rest of the batch. Whoever failed an
    // entry counted it, once.
    slots
        .into_iter()
        .map(|slot| match slot {
            BatchSlot::Cached(payload) => Ok(payload),
            BatchSlot::Waiting(flight) => flight.wait(),
        })
        .collect()
}

fn worker_loop(state: &Arc<ServerState>) {
    while let Some(job) = state.queue.pop() {
        state.counters.inflight.fetch_add(1, Ordering::Relaxed);
        run_job(state, job);
    }
}

/// Computes one group job: the graph and the [`GroupTrace`] come from
/// the build-once registries, then each entry is replayed, memoised and
/// its flight retired in turn. An error or a panic anywhere fails
/// exactly the entries not yet completed, with a structured error
/// instead of stranding their waiters.
///
/// The job leaves `inflight` just before its last flight retires, on
/// every path, so a client that holds the job's last response never
/// reads the job as still in flight.
fn run_job(state: &Arc<ServerState>, job: Job) {
    let c = &state.counters;
    let _span = obs::span_owned(format!("serve.group:{}", job.label()));
    let mut completed = 0;
    let mut left_inflight = false;
    let mut leave_inflight = || {
        if !std::mem::replace(&mut left_inflight, true) {
            c.inflight.fetch_sub(1, Ordering::Relaxed);
        }
    };
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let d = job.dataset;
        let graph = state.graphs.get_or_build((d, job.scale), || {
            d.build(job.scale).map_err(|e| e.to_string())
        });
        let g = graph
            .as_ref()
            .as_ref()
            .map_err(|e| OmegaError::Internal(format!("building {}: {e}", d.code())))?;
        if !job.algo.algo(g).supports(g) {
            return Err(OmegaError::Unsupported(format!(
                "{} needs an undirected graph; {} is directed",
                job.algo.name(),
                d.code()
            )));
        }
        let trace = state.traces.get_or_build(job.key(), || {
            let exec = exec_for(&job.entries[0].spec.system());
            GroupTrace::new(g, job.algo, Variant::Standard, &exec, false)
        });
        for entry in &job.entries {
            let spec = entry.spec;
            let _span = obs::span_owned(format!("serve.compute:{}", spec.label()));
            if state.config.job_delay_ms > 0 {
                std::thread::sleep(Duration::from_millis(state.config.job_delay_ms));
            }
            let report = trace.replay_member(spec, job.scale, state.store.as_ref());
            let payload = encode_payload(&report, spec);
            // Memo first, then flight retirement: a racing request either
            // joins the flight or hits the memo.
            state.memo.insert(entry.fp, Arc::clone(&payload));
            c.bump("serve.misses", &c.misses);
            if completed + 1 == job.entries.len() {
                leave_inflight();
            }
            state.flights.complete(entry.fp, Ok(payload));
            completed += 1;
        }
        Ok(())
    }));
    let err = match outcome {
        Ok(Ok(())) => return,
        Ok(Err(e)) => e,
        Err(_) => OmegaError::Internal(format!("worker panicked computing {}", job.label())),
    };
    leave_inflight();
    let err = Arc::new(err);
    for entry in &job.entries[completed..] {
        c.bump("serve.errors", &c.errors);
        state.flights.complete(entry.fp, Err(Arc::clone(&err)));
    }
}

fn begin_shutdown(state: &Arc<ServerState>) {
    if state.shutting_down.swap(true, Ordering::SeqCst) {
        return; // already draining
    }
    state.queue.close();
    // The accept loop is blocked in `incoming`; poke it awake so it
    // observes the flag and exits.
    let _ = TcpStream::connect(state.addr);
}

fn num(v: u64) -> Json {
    Json::Num(v as f64)
}

fn stats_payload(state: &Arc<ServerState>) -> Json {
    let c = &state.counters;
    let mut o = Json::obj();
    o.set("schema", Json::Str(STATS_SCHEMA.to_string()));
    o.set("requests", num(c.requests.load(Ordering::Relaxed)));
    o.set("batches", num(c.batches.load(Ordering::Relaxed)));
    o.set("hits", num(c.hits.load(Ordering::Relaxed)));
    o.set("misses", num(c.misses.load(Ordering::Relaxed)));
    o.set("coalesced", num(c.coalesced.load(Ordering::Relaxed)));
    o.set("grouped", num(c.grouped.load(Ordering::Relaxed)));
    o.set("shed", num(c.shed.load(Ordering::Relaxed)));
    o.set("errors", num(c.errors.load(Ordering::Relaxed)));
    o.set("inflight", num(c.inflight.load(Ordering::Relaxed)));
    o.set("queue_depth", num(state.queue.depth() as u64));
    o.set("queue_limit", num(state.queue.cap as u64));
    o.set("open_flights", num(state.flights.open() as u64));
    o.set("workers", num(state.config.effective_workers() as u64));
    o.set("draining", Json::Bool(state.draining()));
    let mc = state.memo.counters();
    o.set("evictions", num(mc.evictions));
    let mut m = Json::obj();
    m.set("entries", num(state.memo.len() as u64));
    m.set("bytes", num(state.memo.bytes() as u64));
    m.set("capacity", num(state.memo.capacity() as u64));
    m.set("hits", num(mc.hits));
    m.set("misses", num(mc.misses));
    m.set("inserts", num(mc.inserts));
    m.set("evictions", num(mc.evictions));
    o.set("memo", m);
    if let Some(store) = &state.store {
        let sc = store.counters();
        let mut s = Json::obj();
        s.set("hits", num(sc.hits));
        s.set("misses", num(sc.misses));
        s.set("corrupt", num(sc.corrupt));
        s.set("writes", num(sc.writes));
        o.set("store", s);
    }
    let live = obs::counters_snapshot();
    if !live.is_empty() {
        let mut counters = Json::obj();
        for (name, value) in live {
            counters.set(&name, num(value));
        }
        o.set("obs", counters);
    }
    o
}
