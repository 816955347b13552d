//! The resident analysis daemon.
//!
//! One [`Daemon`] owns a TCP listener (loopback), one admission gate, and
//! a map of per-root resident [`AnalysisSession`]s. Each connection has its
//! own thread, and a check runs on the thread that received it: the gate
//! (one mutex, one condvar) decides when it may start. A check is admitted
//! with a ticket, waits until its ticket is next and fewer than `workers`
//! checks run, runs, and answers. Watch re-checks pass the same gate on the
//! watch thread. The robustness contract, piece by piece:
//!
//! * **Deadlines** — every check carries a deadline (its own or the server
//!   default). A deadline that passes *before the check's turn* answers
//!   [`Status::Timeout`] without running; expiry *mid-run* rides the
//!   budget machinery (the session deadline is set to the remaining time),
//!   so the analysis degrades conservatively to exit code 4 instead of
//!   hanging.
//! * **Backpressure** — at most `queue_capacity` admitted checks wait for
//!   their turn; one more answers [`Status::Overloaded`] immediately. The
//!   daemon sheds load, it never buffers without bound.
//! * **Coalescing** — a check whose inputs match (same stable request hash)
//!   a waiting, not yet started check attaches to it and shares its
//!   result; followers are marked [`RunKind::Coalesced`]. A leader stops
//!   taking followers when it starts, so no follower is answered from
//!   files read before it arrived.
//! * **Panic isolation** — each request runs under `catch_unwind`. A
//!   poisoned request answers status 3 (the exit-code contract's
//!   "internal error") and the affected session is discarded; the store's
//!   clean state survives, so the next request for that root warms back
//!   up from disk.
//! * **Crash safety** — sessions persist through the summary store (atomic
//!   temp-file + rename writes, checksummed reads, advisory writer lock).
//!   A SIGKILLed daemon leaves nothing torn: the OS drops the lock, a new
//!   daemon replays warm from the store.
//! * **Graceful drain** — a [`Request::Shutdown`] frame (or the CLI's
//!   SIGTERM handler calling [`DaemonHandle::begin_shutdown`]) stops
//!   admission, waits until no admitted check waits or runs, answers the
//!   shutdown request, and exits with a final metrics snapshot.
//! * **Watch mode** — with a poll interval configured, roots registered by
//!   [`Request::CheckPaths`] are re-checked through the same gate whenever
//!   an input file's mtime or length moves, keeping the store warm so the
//!   next client request replays.

use crate::proto::{self, Request, Response, RunKind, Status};
use safeflow::{AnalysisConfig, AnalysisSession, SessionRun};
use safeflow_syntax::VirtualFs;
use safeflow_util::fault::{FaultKind, FaultPlan, FaultSite};
use safeflow_util::hash::{inputs_digest, StableHasher};
use safeflow_util::metrics::{Class, Metrics, MetricsSnapshot};
use safeflow_util::pool::{lock_recover, panic_message};
use std::collections::HashMap;
use std::hash::Hasher;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
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
    /// Checks that run at once, each on the thread of the connection that
    /// sent it (distinct from the analysis config's `jobs`, which sizes
    /// the per-run SCC pool).
    pub workers: usize,
    /// Admitted checks that may wait to start; one more sheds with
    /// `Overloaded`.
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
    let mut h = StableHasher::new();
    h.write_u8(0);
    h.write_str(root);
    h.write_u64(inputs_digest(files.iter().map(|(n, c)| (n.as_str(), c.as_str()))));
    h.finish()
}

/// The stable coalescing key of a [`Request::CheckPaths`] (path order
/// matters: the first path is the root unit).
pub fn paths_key(paths: &[String]) -> u64 {
    let mut h = StableHasher::new();
    h.write_u8(1);
    for p in paths {
        h.write_str(p);
    }
    h.finish()
}

/// What a check analyzes.
enum CheckKind {
    Inline { root: String, files: Vec<(String, String)> },
    Paths { paths: Vec<String> },
}

impl CheckKind {
    /// The stable coalescing key.
    fn key(&self) -> u64 {
        match self {
            CheckKind::Inline { root, files } => inline_key(root, files),
            CheckKind::Paths { paths } => paths_key(paths),
        }
    }
}

/// A root registered for watch-mode re-checking: its paths and the
/// (mtime, length) fingerprints last seen.
struct WatchedRoot {
    paths: Vec<String>,
    fingerprints: Vec<Option<(SystemTime, u64)>>,
}

/// State shared by every daemon thread.
struct Shared {
    opts: ServeOptions,
    /// Where the listener accepts: shutdown connects here once to wake the
    /// blocked `accept`.
    wake_addr: SocketAddr,
    gate: Mutex<Gate>,
    /// Signaled whenever a check starts or finishes.
    gate_changed: Condvar,
    metrics: Metrics,
    /// root name → its resident session, created lazily. The per-entry
    /// mutex serializes concurrent checks of the same root; different
    /// roots analyze concurrently.
    sessions: Mutex<HashMap<String, Arc<Mutex<AnalysisSession>>>>,
    watched: Mutex<HashMap<String, WatchedRoot>>,
}

/// The admission gate every check passes, guarded by [`Shared::gate`].
#[derive(Default)]
struct Gate {
    /// Admitted checks that have not started (at most `queue_capacity`).
    waiting: usize,
    /// Checks running now (at most `workers`).
    running: usize,
    /// The ticket the next admitted check takes.
    next_ticket: u64,
    /// The ticket that starts next: checks start in admission order.
    next_start: u64,
    shutting_down: bool,
    /// Coalescing key → result cell of the waiting (not yet started)
    /// leader with that key.
    leaders: HashMap<u64, Arc<OnceLock<Response>>>,
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
    /// starts the accept loop and (if configured) the watch poller.
    /// Returns immediately with a [`DaemonHandle`].
    ///
    /// # Errors
    ///
    /// I/O errors binding the listener.
    pub fn start(opts: ServeOptions, addr: &str) -> std::io::Result<DaemonHandle> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let watch_poll = opts.watch_poll_ms;
        let shared = Arc::new(Shared::new(opts, local));

        let mut threads = Vec::new();
        {
            let shared = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name("serve-accept".into())
                    .spawn(move || accept_loop(listener, shared))?,
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
    /// SIGTERM path): admission stops, admitted checks finish, threads exit.
    pub fn begin_shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// `true` once a shutdown (frame or signal) has been initiated.
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutting_down()
    }

    /// Waits for the daemon to finish draining and returns the final
    /// metrics snapshot. Call [`DaemonHandle::begin_shutdown`] first (or
    /// send a shutdown frame) or this blocks until a client does.
    pub fn wait(self) -> MetricsSnapshot {
        for t in self.threads {
            let _ = t.join();
        }
        self.shared.drain();
        self.shared.metrics.snapshot()
    }
}

impl Shared {
    fn new(opts: ServeOptions, listen_addr: SocketAddr) -> Shared {
        // A listener bound to the unspecified address accepts on loopback.
        let mut wake_addr = listen_addr;
        if wake_addr.ip().is_unspecified() {
            wake_addr.set_ip(match wake_addr {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        Shared {
            opts,
            wake_addr,
            gate: Mutex::new(Gate::default()),
            gate_changed: Condvar::new(),
            metrics: Metrics::new(),
            sessions: Mutex::new(HashMap::new()),
            watched: Mutex::new(HashMap::new()),
        }
    }

    /// Stops admission and wakes the accept loop, which blocks in
    /// `accept`, with one loopback self-connect. Both happen under the gate
    /// lock, and only the first call connects: the listener is still open
    /// then, because the accept loop only returns once it sees the flag.
    fn begin_shutdown(&self) {
        let mut gate = lock_recover(&self.gate);
        if !gate.shutting_down {
            gate.shutting_down = true;
            let _ = TcpStream::connect_timeout(&self.wake_addr, Duration::from_secs(1));
        }
    }

    fn shutting_down(&self) -> bool {
        lock_recover(&self.gate).shutting_down
    }

    /// Waits on the gate until `ready` holds.
    fn wait_until<'a>(
        &self,
        mut gate: MutexGuard<'a, Gate>,
        ready: impl Fn(&Gate) -> bool,
    ) -> MutexGuard<'a, Gate> {
        while !ready(&gate) {
            gate = self.gate_changed.wait(gate).unwrap_or_else(PoisonError::into_inner);
        }
        gate
    }

    /// Waits until no admitted check waits or runs. Called after
    /// [`Shared::begin_shutdown`], when nothing new can be admitted, so an
    /// empty gate stays empty.
    fn drain(&self) {
        drop(self.wait_until(lock_recover(&self.gate), |g| g.waiting + g.running == 0));
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
    for stream in listener.incoming() {
        // A shutdown's own wake-up connection lands here too.
        if shared.shutting_down() {
            return;
        }
        match stream {
            Ok(stream) => {
                let shared = Arc::clone(&shared);
                // Connection threads are detached: they die with the
                // process, and every blocking read carries the io timeout.
                let _ = std::thread::Builder::new()
                    .name("serve-conn".into())
                    .spawn(move || handle_connection(stream, shared));
            }
            // A failed accept (say, out of file descriptors) fails again at
            // once until a connection closes: pause rather than spin.
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
fn serve_request(stream: &mut TcpStream, shared: &Shared, req: Request) -> bool {
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
            // Answer only once every admitted check has been answered.
            shared.drain();
            let resp = Response::message(Status::ShuttingDown, "drained");
            let _ = write_response(stream, shared, 0, &resp);
            false
        }
        Request::Check { root, files, deadline_ms } => {
            let kind = CheckKind::Inline { root, files };
            answer_check(stream, shared, kind, deadline_ms)
        }
        Request::CheckPaths { paths, deadline_ms } => {
            if paths.is_empty() {
                let resp = Response::message(Status::BadRequest, "no input paths");
                return write_response(stream, shared, 0, &resp).is_ok();
            }
            answer_check(stream, shared, CheckKind::Paths { paths }, deadline_ms)
        }
    }
}

/// Runs a client's check (`deadline_ms` 0 = the server default) and writes
/// its answer.
fn answer_check(
    stream: &mut TcpStream,
    shared: &Shared,
    kind: CheckKind,
    deadline_ms: u64,
) -> bool {
    let ms = match deadline_ms {
        0 => shared.opts.default_deadline_ms,
        ms => Some(ms),
    };
    let deadline = ms.map(|ms| Instant::now() + Duration::from_millis(ms));
    let key = kind.key();
    let resp = check(shared, key, &kind, deadline);
    write_response(stream, shared, key, &resp).is_ok()
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

// ------------------------------------------------------------- check side

/// One check's whole lifecycle, on the calling thread: admission through
/// the gate (shed, refused while draining, or attached to a waiting
/// identical check), its turn, the run, and the answer. `key` is
/// `kind.key()`.
fn check(shared: &Shared, key: u64, kind: &CheckKind, deadline: Option<Instant>) -> Response {
    let admitted = Instant::now();
    let mut gate = lock_recover(&shared.gate);
    if gate.shutting_down {
        return Response::message(Status::ShuttingDown, "daemon is draining");
    }
    if let Some(cell) = gate.leaders.get(&key).cloned() {
        shared.metrics.add(Class::Sched, "serve.coalesced", 1);
        drop(shared.wait_until(gate, |_| cell.get().is_some()));
        let mut resp = cell.get().expect("the leader published its response").clone();
        if resp.run != RunKind::None {
            resp.run = RunKind::Coalesced;
        }
        return resp;
    }
    if gate.waiting >= shared.opts.queue_capacity {
        shared.metrics.add(Class::Sched, "serve.shed_overloaded", 1);
        return Response::message(Status::Overloaded, "admission queue full, request shed");
    }
    let ticket = gate.next_ticket;
    gate.next_ticket += 1;
    gate.waiting += 1;
    shared.metrics.observe("serve.queue_depth", gate.waiting as u64);
    let cell = Arc::new(OnceLock::new());
    gate.leaders.insert(key, Arc::clone(&cell));

    let workers = shared.opts.workers.max(1);
    let mut gate = shared.wait_until(gate, |g| g.next_start == ticket && g.running < workers);
    let queue_ns = admitted.elapsed().as_nanos() as u64;
    gate.next_start += 1;
    gate.waiting -= 1;
    gate.running += 1;
    // An identical check that arrives from here on is admitted on its own:
    // its files may have changed after this run read them.
    gate.leaders.remove(&key);
    drop(gate);
    shared.gate_changed.notify_all();
    shared.metrics.observe("serve.wait_ns", queue_ns);
    // When the CPUs are busy, connections accepted after this one may not
    // have reached the gate yet and would sit in the OS run queue behind
    // this check, an unbounded queue that never sheds. Yielding once lets
    // them reach the gate first, to wait or be shed.
    std::thread::yield_now();

    let mut resp = execute_check(shared, key, kind, deadline);
    resp.queue_ns = queue_ns;
    let _ = cell.set(resp.clone());
    lock_recover(&shared.gate).running -= 1;
    shared.gate_changed.notify_all();
    resp
}

fn execute_check(
    shared: &Shared,
    key: u64,
    kind: &CheckKind,
    deadline: Option<Instant>,
) -> Response {
    // 1. Queue-expiry: a request whose deadline passed while waiting is
    // answered Timeout without burning analysis time on it.
    let now = Instant::now();
    let mut remaining_ms = None;
    if let Some(deadline) = deadline {
        if now >= deadline {
            shared.metrics.add(Class::Sched, "serve.timeouts", 1);
            return Response::message(Status::Timeout, "deadline expired while queued");
        }
        remaining_ms = Some(((deadline - now).as_millis() as u64).max(1));
    }

    // 2. Injected mid-request faults (deterministic, keyed by the stable
    // request hash): a panic exercises containment below; budget
    // exhaustion sets a deadline that has already passed when the run
    // starts, so it degrades through the ordinary budget machinery however
    // fast the analysis is.
    if let Some(plan) = &shared.opts.fault_plan {
        match plan.fault_at(FaultSite::ServeRequest, key) {
            Some(FaultKind::BudgetExhaustion) => remaining_ms = Some(0),
            Some(FaultKind::Panic) => {
                // Raise inside the contained section below.
            }
            None => {}
        }
    }

    let root = match kind {
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
                if matches!(plan.fault_at(FaultSite::ServeRequest, key), Some(FaultKind::Panic)) {
                    panic!("injected fault: panic at ServeRequest (key {key})");
                }
            }
            session.set_deadline_ms(remaining_ms);
            match kind {
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
            if let CheckKind::Paths { paths } = kind {
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
                queue_ns: 0, // filled in by `check`
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
        if shared.shutting_down() {
            return;
        }
        for paths in dirty_roots(&shared) {
            // Dirty roots pass the same gate as client traffic; under
            // overload the re-check is skipped this round and the next
            // poll retries.
            shared.metrics.add(Class::Sched, "serve.watch_rechecks", 1);
            let kind = CheckKind::Paths { paths };
            let status = check(&shared, kind.key(), &kind, None).status;
            if matches!(status, Status::Overloaded | Status::ShuttingDown) {
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

#[cfg(test)]
mod tests {
    use super::*;

    /// Shared state with no listener behind it.
    fn shared(opts: ServeOptions) -> Shared {
        Shared::new(opts, SocketAddr::from((Ipv4Addr::LOCALHOST, 0)))
    }

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
        let shared = shared(ServeOptions::default());
        let first = shared.session_for("a.c");
        poison(&shared.sessions);
        assert!(Arc::ptr_eq(&first, &shared.session_for("a.c")), "resident session survives");
        shared.evict_session("a.c");
        assert!(!Arc::ptr_eq(&first, &shared.session_for("a.c")), "eviction still rebuilds");
    }

    fn until(cond: impl Fn() -> bool) {
        while !cond() {
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn poisoned_queue_still_admits_and_executes() {
        let shared = Arc::new(shared(ServeOptions { workers: 1, ..ServeOptions::default() }));
        poison(&shared.gate);
        let kind = CheckKind::Inline {
            root: "main.c".to_string(),
            files: vec![("main.c".to_string(), "int main() { return 0; }".to_string())],
        };
        let key = kind.key();
        let kind = Arc::new(kind);
        let spawn_check = || {
            let (shared, kind) = (Arc::clone(&shared), Arc::clone(&kind));
            std::thread::spawn(move || check(&shared, key, &kind, None))
        };
        // Occupy the one run slot so the leader has to wait for its turn.
        lock_recover(&shared.gate).running = 1;
        let leader = spawn_check();
        until(|| lock_recover(&shared.gate).leaders.contains_key(&key));
        let follower = spawn_check();
        until(|| shared.metrics.snapshot().sched.contains_key("serve.coalesced"));
        assert_eq!(lock_recover(&shared.gate).waiting, 1, "the second check coalesced");
        lock_recover(&shared.gate).running = 0;
        shared.gate_changed.notify_all();

        let resp = leader.join().expect("the leader answers");
        assert_eq!(resp.status, Status::Clean);
        assert_eq!(resp.run, RunKind::Analyzed);
        let resp = follower.join().expect("the follower is answered too");
        assert_eq!(resp.status, Status::Clean);
        assert_eq!(resp.run, RunKind::Coalesced);
        shared.begin_shutdown();
        shared.drain();
        let gate = lock_recover(&shared.gate);
        assert_eq!((gate.waiting, gate.running), (0, 0));
        assert!(gate.leaders.is_empty());
    }

    #[test]
    fn poisoned_watch_map_still_registers_and_scans() {
        let dir =
            std::env::temp_dir().join(format!("safeflow-watch-poison-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("main.c");
        std::fs::write(&path, "int main() { return 0; }\n").unwrap();
        let paths = vec![path.to_string_lossy().into_owned()];
        let shared = shared(ServeOptions { watch_poll_ms: Some(10), ..ServeOptions::default() });
        poison(&shared.watched);
        register_watch(&shared, &paths);
        assert!(dirty_roots(&shared).is_empty(), "an unchanged root is clean");
        std::fs::write(&path, "int main() { return 1 + 0; }\n").unwrap();
        assert_eq!(dirty_roots(&shared), vec![paths], "a grown file is dirty");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
