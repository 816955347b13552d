//! The resident analysis daemon.
//!
//! One [`Daemon`] owns a TCP listener (loopback), a bounded admission
//! queue, a pool of request workers, and a map of per-root resident
//! [`AnalysisSession`]s. The robustness contract, piece by piece:
//!
//! * **Deadlines** — every check carries a deadline (its own or the server
//!   default). Expiry *in the queue* answers [`Status::Timeout`] without
//!   running; expiry *mid-run* rides PR 2's budget machinery (the session
//!   deadline is set to the remaining time), so the analysis degrades
//!   conservatively to exit code 4 instead of hanging.
//! * **Backpressure** — the admission queue is bounded; a full queue
//!   answers [`Status::Overloaded`] immediately. The daemon sheds load,
//!   it never buffers without bound.
//! * **Coalescing** — concurrent checks of identical inputs (same stable
//!   request hash) attach to the in-flight leader and share its result;
//!   followers are marked [`RunKind::Coalesced`].
//! * **Panic isolation** — each request runs under `catch_unwind`. A
//!   poisoned request answers status 3 (the exit-code contract's
//!   "internal error") and the affected session is discarded; the store's
//!   clean state survives, so the next request for that root warms back
//!   up from disk.
//! * **Crash safety** — sessions persist through the PR 4 store (atomic
//!   temp-file + rename writes, checksummed reads, advisory writer lock).
//!   A SIGKILLed daemon leaves nothing torn: the OS drops the lock, a new
//!   daemon replays warm from the store.
//! * **Graceful drain** — a [`Request::Shutdown`] frame (or the CLI's
//!   SIGTERM handler calling [`DaemonHandle::begin_shutdown`]) stops
//!   admission, finishes the queue, answers the shutdown request, and
//!   exits with a final metrics snapshot.
//! * **Watch mode** — with a poll interval configured, roots registered by
//!   [`Request::CheckPaths`] are re-checked through the same admission
//!   queue whenever an input file's mtime or length moves, keeping the
//!   store warm so the next client request replays.

use crate::proto::{self, Request, Response, RunKind, Status};
use safeflow::{AnalysisConfig, AnalysisSession, SessionRun};
use safeflow_syntax::VirtualFs;
use safeflow_util::fault::{FaultKind, FaultPlan, FaultSite};
use safeflow_util::hash::Fnv64;
use safeflow_util::metrics::{Class, Metrics, MetricsSnapshot};
use safeflow_util::pool::{lock_recover, panic_message};
use std::collections::{HashMap, VecDeque};
use std::hash::Hasher;
use std::io::Read;
use std::net::{TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant, SystemTime};

/// Configuration for a [`Daemon`].
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Base analysis configuration for every resident session. Its
    /// `fault_plan` should stay `None` — protocol-layer faults belong in
    /// [`ServeOptions::fault_plan`]; an engine-level plan would disable
    /// the store and the warm path with it.
    pub analysis: AnalysisConfig,
    /// Persistent store root; each analyzed root gets its own
    /// subdirectory. `None` = memory-only sessions (still warm across
    /// requests, cold across restarts).
    pub store_dir: Option<PathBuf>,
    /// Request-execution worker threads (distinct from the analysis
    /// config's `jobs`, which sizes the per-run SCC pool).
    pub workers: usize,
    /// Admission-queue capacity; a full queue sheds with `Overloaded`.
    pub queue_capacity: usize,
    /// Default per-request deadline (ms); `None` = no deadline unless the
    /// request carries one.
    pub default_deadline_ms: Option<u64>,
    /// Socket read/write timeout (ms) — the slow-loris guard: a client
    /// that trickles a frame slower than this is disconnected.
    pub io_timeout_ms: u64,
    /// Watch-mode poll interval (ms); `None` disables watching.
    pub watch_poll_ms: Option<u64>,
    /// Protocol-layer fault injection ([`FaultSite::ServeRequest`],
    /// [`FaultSite::ServeFrame`]); engine sites in this plan are ignored.
    pub fault_plan: Option<FaultPlan>,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            analysis: AnalysisConfig::with_engine(safeflow::Engine::Summary).normalized(),
            store_dir: None,
            workers: 2,
            queue_capacity: 32,
            default_deadline_ms: None,
            io_timeout_ms: 10_000,
            watch_poll_ms: None,
            fault_plan: None,
        }
    }
}

/// The stable coalescing key of an inline [`Request::Check`]: a pure
/// function of the request contents (file order does not matter),
/// independent of arrival order or time. Public so tests and the smoke
/// harness can aim [`FaultSite::ServeRequest`] / [`FaultSite::ServeFrame`]
/// injections at one specific request.
pub fn inline_key(root: &str, files: &[(String, String)]) -> u64 {
    let mut h = Fnv64::new();
    h.write_u8(0);
    h.write_str(root);
    let mut sorted: Vec<(&str, &str)> =
        files.iter().map(|(n, c)| (n.as_str(), c.as_str())).collect();
    sorted.sort();
    for (name, content) in sorted {
        h.write_str(name);
        h.write_u64(safeflow_util::hash::hash_str(content));
    }
    h.finish()
}

/// The stable coalescing key of a [`Request::CheckPaths`] (path order
/// matters: the first path is the root unit).
pub fn paths_key(paths: &[String]) -> u64 {
    let mut h = Fnv64::new();
    h.write_u8(1);
    for p in paths {
        h.write_str(p);
    }
    h.finish()
}

/// One queued check request.
struct Job {
    /// Stable coalescing hash of the request contents.
    key: u64,
    kind: CheckKind,
    /// Absolute queue deadline, if any.
    deadline: Option<Instant>,
    /// Milliseconds granted (for the mid-run budget handoff).
    deadline_ms: Option<u64>,
    enqueued: Instant,
    /// Response channels: the leader first, coalesced followers after.
    /// Empty for internal (watch) re-checks.
    waiters: Vec<std::sync::mpsc::Sender<Response>>,
}

/// What a job analyzes.
#[derive(Clone)]
enum CheckKind {
    Inline { root: String, files: Vec<(String, String)> },
    Paths { paths: Vec<String> },
}

/// A root registered for watch-mode re-checking: its paths and the
/// (mtime, length) fingerprints last seen.
struct WatchedRoot {
    paths: Vec<String>,
    fingerprints: Vec<Option<(SystemTime, u64)>>,
}

/// Queue + lifecycle state shared by every daemon thread.
struct Shared {
    opts: ServeOptions,
    queue: Mutex<QueueState>,
    /// Signaled on enqueue and on shutdown.
    work: Condvar,
    /// Signaled when the queue drains during shutdown.
    drained: Condvar,
    shutting_down: AtomicBool,
    metrics: Metrics,
    /// root name → its resident session, created lazily. The per-entry
    /// mutex serializes concurrent checks of the same root; different
    /// roots analyze concurrently.
    sessions: Mutex<HashMap<String, Arc<Mutex<AnalysisSession>>>>,
    /// Live (queued or running) jobs by coalescing key.
    live: Mutex<HashMap<u64, Arc<Mutex<Option<Job>>>>>,
    watched: Mutex<HashMap<String, WatchedRoot>>,
}

struct QueueState {
    jobs: VecDeque<Arc<Mutex<Option<Job>>>>,
    /// Jobs admitted but not yet completed (queued + running). Drain
    /// completion means this is zero with an empty queue.
    in_flight: usize,
}

/// A running daemon: bound address plus the thread handles needed to wait
/// for (or force) termination.
pub struct DaemonHandle {
    addr: std::net::SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

/// The resident analysis daemon. See the module docs.
pub struct Daemon;

impl Daemon {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts the accept loop, workers, and (if configured) the watch
    /// poller. Returns immediately with a [`DaemonHandle`].
    ///
    /// # Errors
    ///
    /// I/O errors binding the listener.
    pub fn start(opts: ServeOptions, addr: &str) -> std::io::Result<DaemonHandle> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let workers = opts.workers.max(1);
        let watch_poll = opts.watch_poll_ms;
        let shared = Arc::new(Shared::new(opts));

        let mut threads = Vec::new();
        {
            let shared = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name("serve-accept".into())
                    .spawn(move || accept_loop(listener, shared))?,
            );
        }
        for w in 0..workers {
            let shared = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("serve-worker-{w}"))
                    .spawn(move || worker_loop(shared))?,
            );
        }
        if let Some(poll_ms) = watch_poll {
            let shared = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name("serve-watch".into())
                    .spawn(move || watch_loop(shared, poll_ms))?,
            );
        }
        Ok(DaemonHandle { addr: local, shared, threads })
    }
}

impl DaemonHandle {
    /// The bound listener address.
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Initiates a graceful drain from outside the protocol (the CLI's
    /// SIGTERM path): admission stops, queued work finishes, threads exit.
    pub fn begin_shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// `true` once a shutdown (frame or signal) has been initiated.
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutting_down.load(Ordering::SeqCst)
    }

    /// Waits for the daemon to finish draining and returns the final
    /// metrics snapshot. Call [`DaemonHandle::begin_shutdown`] first (or
    /// send a shutdown frame) or this blocks until a client does.
    pub fn wait(self) -> MetricsSnapshot {
        for t in self.threads {
            let _ = t.join();
        }
        self.shared.metrics.snapshot()
    }
}

impl Shared {
    fn new(opts: ServeOptions) -> Shared {
        Shared {
            opts,
            queue: Mutex::new(QueueState { jobs: VecDeque::new(), in_flight: 0 }),
            work: Condvar::new(),
            drained: Condvar::new(),
            shutting_down: AtomicBool::new(false),
            metrics: Metrics::new(),
            sessions: Mutex::new(HashMap::new()),
            live: Mutex::new(HashMap::new()),
            watched: Mutex::new(HashMap::new()),
        }
    }

    fn begin_shutdown(&self) {
        self.shutting_down.store(true, Ordering::SeqCst);
        let _g = lock_recover(&self.queue);
        self.work.notify_all();
        self.drained.notify_all();
    }

    /// Computes the stable coalescing key for a check.
    fn coalesce_key(&self, kind: &CheckKind) -> u64 {
        match kind {
            CheckKind::Inline { root, files } => inline_key(root, files),
            CheckKind::Paths { paths } => paths_key(paths),
        }
    }

    /// Admits a check into the queue (or coalesces it onto an identical
    /// live job). `Err(status)` = shed (`Overloaded`/`ShuttingDown`).
    /// `with_waiter` = false enqueues an internal watch re-check with no
    /// response channel.
    fn submit(
        &self,
        kind: CheckKind,
        deadline_ms: Option<u64>,
        with_waiter: bool,
    ) -> Result<Option<std::sync::mpsc::Receiver<Response>>, Status> {
        if self.shutting_down.load(Ordering::SeqCst) {
            return Err(Status::ShuttingDown);
        }
        let key = self.coalesce_key(&kind);
        let (tx, rx) = std::sync::mpsc::channel();

        // Coalesce onto a live identical job if one exists.
        if with_waiter {
            let live = lock_recover(&self.live);
            if let Some(slot) = live.get(&key) {
                let mut job = lock_recover(slot);
                if let Some(job) = job.as_mut() {
                    job.waiters.push(tx);
                    self.metrics.add(Class::Sched, "serve.coalesced", 1);
                    return Ok(Some(rx));
                }
            }
        }

        let mut q = lock_recover(&self.queue);
        if q.jobs.len() >= self.opts.queue_capacity {
            self.metrics.add(Class::Sched, "serve.shed_overloaded", 1);
            return Err(Status::Overloaded);
        }
        let now = Instant::now();
        let job = Job {
            key,
            kind,
            deadline: deadline_ms.map(|ms| now + Duration::from_millis(ms)),
            deadline_ms,
            enqueued: now,
            waiters: if with_waiter { vec![tx] } else { Vec::new() },
        };
        let slot = Arc::new(Mutex::new(Some(job)));
        q.jobs.push_back(Arc::clone(&slot));
        q.in_flight += 1;
        self.metrics.observe("serve.queue_depth", q.jobs.len() as u64);
        // Publish to the live map before releasing the queue lock, so a
        // worker can never pop-and-retire this job before it is visible
        // to coalescers (which would strand a closed slot in the map).
        lock_recover(&self.live).insert(key, slot);
        drop(q);
        self.work.notify_one();
        Ok(with_waiter.then_some(rx))
    }

    /// The resident session for `root`, created (and store-attached) on
    /// first use.
    fn session_for(&self, root: &str) -> Arc<Mutex<AnalysisSession>> {
        let mut sessions = lock_recover(&self.sessions);
        if let Some(s) = sessions.get(root) {
            return Arc::clone(s);
        }
        let config = self.opts.analysis.clone();
        let session = match &self.opts.store_dir {
            Some(dir) => {
                let sub = dir.join(format!("root-{:016x}", safeflow_util::hash::hash_str(root)));
                AnalysisSession::with_store(config.clone(), &sub)
                    .unwrap_or_else(|_| AnalysisSession::new(config))
            }
            None => AnalysisSession::new(config),
        };
        let slot = Arc::new(Mutex::new(session));
        sessions.insert(root.to_string(), Arc::clone(&slot));
        slot
    }

    /// Drops `root`'s resident session (after a contained panic): the next
    /// request rebuilds it, warm from the store's last clean state.
    fn evict_session(&self, root: &str) {
        lock_recover(&self.sessions).remove(root);
    }
}

// ------------------------------------------------------------ accept side

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    loop {
        if shared.shutting_down.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                let shared = Arc::clone(&shared);
                // Connection threads are detached: they die with the
                // process, and every blocking read carries the io timeout.
                let _ = std::thread::Builder::new()
                    .name("serve-conn".into())
                    .spawn(move || handle_connection(stream, shared));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

/// Serves one client connection: a loop of request frames until EOF, an
/// I/O error, a malformed frame, or shutdown.
fn handle_connection(mut stream: TcpStream, shared: Arc<Shared>) {
    let timeout = Duration::from_millis(shared.opts.io_timeout_ms.max(1));
    let _ = stream.set_read_timeout(Some(timeout));
    let _ = stream.set_write_timeout(Some(timeout));
    let _ = stream.set_nodelay(true);

    loop {
        let body = match proto::read_frame(&mut stream) {
            Ok(b) => b,
            Err(e) => {
                // EOF between frames is a normal close; anything else —
                // timeouts (slow-loris), torn frames, hostile lengths —
                // counts as a dropped client. Either way the daemon serves
                // the next connection unperturbed.
                if e.kind() != std::io::ErrorKind::UnexpectedEof {
                    shared.metrics.add(Class::Sched, "serve.conn_errors", 1);
                }
                return;
            }
        };
        let Some(req) = proto::decode_request(&body) else {
            shared.metrics.add(Class::Sched, "serve.bad_requests", 1);
            let resp = Response::message(Status::BadRequest, "malformed or mismatched frame");
            let _ = write_response(&mut stream, &shared, 0, &resp);
            return;
        };
        let done = matches!(req, Request::Shutdown);
        if !serve_request(&mut stream, &shared, req) || done {
            return;
        }
    }
}

/// Handles one decoded request; `false` = close the connection.
fn serve_request(stream: &mut TcpStream, shared: &Arc<Shared>, req: Request) -> bool {
    shared.metrics.add(Class::Sched, "serve.requests", 1);
    match req {
        Request::Ping => {
            let resp = Response::message(Status::Clean, "pong");
            write_response(stream, shared, 0, &resp).is_ok()
        }
        Request::Metrics => {
            let mut resp = Response::message(Status::Clean, "metrics");
            resp.report_json = shared.metrics.snapshot().to_json().render();
            write_response(stream, shared, 0, &resp).is_ok()
        }
        Request::Shutdown => {
            shared.begin_shutdown();
            // Wait for the queue to drain so the client knows every
            // admitted request was answered.
            let mut q = lock_recover(&shared.queue);
            while q.in_flight > 0 {
                q = shared.drained.wait(q).unwrap_or_else(PoisonError::into_inner);
            }
            drop(q);
            let resp = Response::message(Status::ShuttingDown, "drained");
            let _ = write_response(stream, shared, 0, &resp);
            false
        }
        Request::Check { root, files, deadline_ms } => {
            let kind = CheckKind::Inline { root, files };
            dispatch_check(stream, shared, kind, deadline_ms)
        }
        Request::CheckPaths { paths, deadline_ms } => {
            if paths.is_empty() {
                let resp = Response::message(Status::BadRequest, "no input paths");
                return write_response(stream, shared, 0, &resp).is_ok();
            }
            let kind = CheckKind::Paths { paths };
            dispatch_check(stream, shared, kind, deadline_ms)
        }
    }
}

fn dispatch_check(
    stream: &mut TcpStream,
    shared: &Arc<Shared>,
    kind: CheckKind,
    deadline_ms: u64,
) -> bool {
    let key = shared.coalesce_key(&kind);
    let deadline = match deadline_ms {
        0 => shared.opts.default_deadline_ms,
        ms => Some(ms),
    };
    match shared.submit(kind, deadline, true) {
        Ok(Some(rx)) => match rx.recv() {
            Ok(resp) => write_response(stream, shared, key, &resp).is_ok(),
            // Worker side hung up without responding (cannot happen under
            // normal operation; be defensive anyway).
            Err(_) => false,
        },
        Ok(None) => unreachable!("submit(with_waiter = true) always returns a receiver"),
        Err(status) => {
            let msg = match status {
                Status::Overloaded => "admission queue full, request shed",
                Status::ShuttingDown => "daemon is draining",
                _ => "rejected",
            };
            let resp = Response::message(status, msg);
            write_response(stream, shared, key, &resp).is_ok()
        }
    }
}

/// Writes `resp` as one frame, honoring an armed [`FaultSite::ServeFrame`]
/// injection by truncating the frame instead (the torn-wire drill).
fn write_response(
    stream: &mut TcpStream,
    shared: &Shared,
    key: u64,
    resp: &Response,
) -> std::io::Result<()> {
    // An un-encodable response (a report too large for the wire's length
    // fields) degrades to a short BadRequest message rather than a frame
    // with silently wrapped lengths.
    let body = proto::encode_response(resp).unwrap_or_else(|e| {
        proto::encode_response(&Response::message(
            Status::BadRequest,
            format!("unsendable response: {e}"),
        ))
        .expect("short message response always encodes")
    });
    let fault = shared
        .opts
        .fault_plan
        .as_ref()
        .and_then(|p| p.fault_at(FaultSite::ServeFrame, key))
        .is_some();
    if fault {
        shared.metrics.add(Class::Sched, "serve.frame_faults", 1);
        proto::write_truncated_frame(stream, &body)?;
        // A torn frame is unrecoverable for this connection; sever it so
        // the client sees the truncation immediately.
        let _ = stream.shutdown(std::net::Shutdown::Both);
        return Err(std::io::Error::new(std::io::ErrorKind::InvalidData, "injected torn frame"));
    }
    proto::write_frame(stream, &body)
}

// ------------------------------------------------------------ worker side

fn worker_loop(shared: Arc<Shared>) {
    loop {
        let slot = {
            let mut q = lock_recover(&shared.queue);
            loop {
                if let Some(slot) = q.jobs.pop_front() {
                    break slot;
                }
                if shared.shutting_down.load(Ordering::SeqCst) {
                    return;
                }
                q = shared.work.wait(q).unwrap_or_else(PoisonError::into_inner);
            }
        };
        // Take the job out of its slot: from here on, late coalescers see
        // a closed slot and enqueue fresh.
        let job = lock_recover(&slot).take();
        let Some(job) = job else {
            finish_one(&shared);
            continue;
        };
        let response = execute_job(&shared, &job);
        lock_recover(&shared.live).remove(&job.key);
        let queue_ns = job.enqueued.elapsed().as_nanos() as u64;
        shared.metrics.observe("serve.wait_ns", queue_ns);
        for (i, tx) in job.waiters.iter().enumerate() {
            let mut resp = response.clone();
            resp.queue_ns = queue_ns;
            if i > 0 && resp.run != RunKind::None {
                resp.run = RunKind::Coalesced;
            }
            let _ = tx.send(resp);
        }
        finish_one(&shared);
    }
}

/// Marks one admitted job complete, waking drain waiters at zero.
fn finish_one(shared: &Shared) {
    let mut q = lock_recover(&shared.queue);
    q.in_flight -= 1;
    if q.in_flight == 0 {
        shared.drained.notify_all();
    }
}

fn execute_job(shared: &Arc<Shared>, job: &Job) -> Response {
    // 1. Queue-expiry: a request whose deadline passed while waiting is
    // answered Timeout without burning analysis time on it.
    let now = Instant::now();
    let mut remaining_ms = job.deadline_ms;
    if let Some(deadline) = job.deadline {
        if now >= deadline {
            shared.metrics.add(Class::Sched, "serve.timeouts", 1);
            return Response {
                status: Status::Timeout,
                rendered: "deadline expired while queued".into(),
                queue_ns: job.enqueued.elapsed().as_nanos() as u64,
                ..Response::default()
            };
        }
        remaining_ms = Some(((deadline - now).as_millis() as u64).max(1));
    }

    // 2. Injected mid-request faults (deterministic, keyed by the stable
    // request hash): a panic exercises containment below; budget
    // exhaustion sets a deadline that has already passed when the run
    // starts, so it degrades through the ordinary budget machinery however
    // fast the analysis is.
    if let Some(plan) = &shared.opts.fault_plan {
        match plan.fault_at(FaultSite::ServeRequest, job.key) {
            Some(FaultKind::BudgetExhaustion) => remaining_ms = Some(0),
            Some(FaultKind::Panic) => {
                // Raise inside the contained section below.
            }
            None => {}
        }
    }

    let root = match &job.kind {
        CheckKind::Inline { root, .. } => root.clone(),
        CheckKind::Paths { paths } => paths[0].clone(),
    };
    let session_slot = shared.session_for(&root);
    let t0 = Instant::now();
    let outcome = {
        // A previous panic poisons the mutex; the poison flag carries no
        // information we don't already handle (the session was evicted),
        // so ignore it.
        let mut session = lock_recover(&session_slot);
        catch_unwind(AssertUnwindSafe(|| {
            if let Some(plan) = &shared.opts.fault_plan {
                // Deterministic mid-request panic, inside containment.
                if matches!(plan.fault_at(FaultSite::ServeRequest, job.key), Some(FaultKind::Panic))
                {
                    panic!("injected fault: panic at ServeRequest (key {})", job.key);
                }
            }
            session.set_deadline_ms(remaining_ms);
            match &job.kind {
                CheckKind::Inline { root, files } => {
                    let mut fs = VirtualFs::new();
                    for (name, content) in files {
                        fs.add(name.as_str(), content.as_str());
                    }
                    session.check(root, &fs)
                }
                CheckKind::Paths { paths } => session.check_files(paths),
            }
        }))
    };
    let run_ns = t0.elapsed().as_nanos() as u64;
    shared.metrics.observe("serve.run_ns", run_ns);

    match outcome {
        Ok(Ok(outcome)) => {
            if outcome.exit_code == 4 {
                shared.metrics.add(Class::Sched, "serve.deadline_degraded", 1);
            }
            if let CheckKind::Paths { paths } = &job.kind {
                register_watch(shared, paths);
            }
            Response {
                status: Status::from_exit_code(outcome.exit_code),
                rendered: outcome.rendered,
                report_json: outcome.report_json.render(),
                run: match outcome.run {
                    SessionRun::Analyzed => RunKind::Analyzed,
                    SessionRun::Replayed => RunKind::Replayed,
                },
                queue_ns: 0, // filled by the caller per waiter
                run_ns,
            }
        }
        // Analysis errors (unreadable path, parse failure, store write)
        // map to exit code 2 — unusable input — like the one-shot CLI.
        Ok(Err(e)) => Response {
            status: Status::Errors,
            rendered: format!("{e}\n"),
            run: RunKind::Analyzed,
            run_ns,
            ..Response::default()
        },
        Err(payload) => {
            // Contained request panic: answer the exit-code contract's
            // "internal error" and discard the (possibly inconsistent)
            // session. The store still holds the last clean state, so the
            // next request warms back up from disk.
            shared.metrics.add(Class::Sched, "serve.panics_contained", 1);
            shared.evict_session(&root);
            Response {
                status: Status::DegradedFault,
                rendered: format!("internal error: {}\n", panic_message(&*payload)),
                run: RunKind::Analyzed,
                run_ns,
                ..Response::default()
            }
        }
    }
}

// ------------------------------------------------------------- watch side

/// Fingerprints `path` for change detection: (mtime, length).
fn fingerprint(path: &str) -> Option<(SystemTime, u64)> {
    let meta = std::fs::metadata(path).ok()?;
    Some((meta.modified().ok()?, meta.len()))
}

/// Registers (or refreshes) a successfully checked path set for watching.
fn register_watch(shared: &Shared, paths: &[String]) {
    if shared.opts.watch_poll_ms.is_none() {
        return;
    }
    let fingerprints = paths.iter().map(|p| fingerprint(p)).collect();
    lock_recover(&shared.watched)
        .insert(paths[0].clone(), WatchedRoot { paths: paths.to_vec(), fingerprints });
}

fn watch_loop(shared: Arc<Shared>, poll_ms: u64) {
    let interval = Duration::from_millis(poll_ms.max(10));
    loop {
        std::thread::sleep(interval);
        if shared.shutting_down.load(Ordering::SeqCst) {
            return;
        }
        for paths in dirty_roots(&shared) {
            // Dirty roots go through the same bounded admission queue as
            // client traffic; under overload the re-check is skipped this
            // round and the next poll retries.
            shared.metrics.add(Class::Sched, "serve.watch_rechecks", 1);
            if shared.submit(CheckKind::Paths { paths }, None, false).is_err() {
                shared.metrics.add(Class::Sched, "serve.watch_shed", 1);
            }
        }
    }
}

/// Re-fingerprints every watched root under the lock and returns the path
/// sets that changed since the last scan (the caller re-checks them
/// outside it).
fn dirty_roots(shared: &Shared) -> Vec<Vec<String>> {
    let mut dirty = Vec::new();
    let mut watched = lock_recover(&shared.watched);
    for root in watched.values_mut() {
        let fresh: Vec<Option<(SystemTime, u64)>> =
            root.paths.iter().map(|p| fingerprint(p)).collect();
        if fresh != root.fingerprints {
            root.fingerprints = fresh;
            dirty.push(root.paths.clone());
        }
    }
    dirty
}

/// Reads everything the peer sends until EOF, for tests that need to see
/// a torn frame from the client side.
#[doc(hidden)]
pub fn drain_stream(stream: &mut TcpStream) -> Vec<u8> {
    let mut buf = Vec::new();
    let _ = stream.read_to_end(&mut buf);
    buf
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Poisons `m` the way a contained panic would: a thread panics while
    /// holding the guard.
    fn poison<T: Send>(m: &Mutex<T>) {
        std::thread::scope(|s| {
            let _ = s
                .spawn(|| {
                    let _guard = m.lock();
                    panic!("poisoning the lock on purpose");
                })
                .join();
        });
        assert!(m.is_poisoned());
    }

    #[test]
    fn poisoned_session_map_still_serves_and_evicts() {
        let shared = Shared::new(ServeOptions::default());
        let first = shared.session_for("a.c");
        poison(&shared.sessions);
        assert!(Arc::ptr_eq(&first, &shared.session_for("a.c")), "resident session survives");
        shared.evict_session("a.c");
        assert!(!Arc::ptr_eq(&first, &shared.session_for("a.c")), "eviction still rebuilds");
    }

    #[test]
    fn poisoned_queue_still_admits_and_executes() {
        let shared = Arc::new(Shared::new(ServeOptions::default()));
        poison(&shared.queue);
        poison(&shared.live);
        let kind = || CheckKind::Inline {
            root: "main.c".to_string(),
            files: vec![("main.c".to_string(), "int main() { return 0; }".to_string())],
        };
        let rx = shared.submit(kind(), None, true).expect("admitted").expect("has a waiter");
        let slot = lock_recover(&shared.live).values().next().cloned().expect("the job is live");
        poison(&slot);
        let follower = shared.submit(kind(), None, true).expect("admitted").expect("has a waiter");
        assert_eq!(lock_recover(&shared.queue).in_flight, 1, "the second submit coalesced");

        let worker = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || worker_loop(shared))
        };
        let resp = rx.recv().expect("the worker answers");
        assert_eq!(resp.status, Status::Clean);
        let resp = follower.recv().expect("the follower is answered too");
        assert_eq!(resp.status, Status::Clean);
        assert_eq!(resp.run, RunKind::Coalesced);
        shared.begin_shutdown();
        worker.join().expect("worker exits on shutdown");
        assert_eq!(lock_recover(&shared.queue).in_flight, 0);
        assert!(lock_recover(&shared.live).is_empty());
    }

    #[test]
    fn poisoned_watch_map_still_registers_and_scans() {
        let dir =
            std::env::temp_dir().join(format!("safeflow-watch-poison-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("main.c");
        std::fs::write(&path, "int main() { return 0; }\n").unwrap();
        let paths = vec![path.to_string_lossy().into_owned()];
        let shared =
            Shared::new(ServeOptions { watch_poll_ms: Some(10), ..ServeOptions::default() });
        poison(&shared.watched);
        register_watch(&shared, &paths);
        assert!(dirty_roots(&shared).is_empty(), "an unchanged root is clean");
        std::fs::write(&path, "int main() { return 1 + 0; }\n").unwrap();
        assert_eq!(dirty_roots(&shared), vec![paths], "a grown file is dirty");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
