//! Integration tests for the resident daemon: the robustness contract
//! end to end over real sockets.
//!
//! Everything here runs in-process (daemon threads + client sockets over
//! loopback); the process-level drills (SIGKILL, racing CLI) live in the
//! `serve-smoke` harness.

use safeflow::{AnalysisConfig, AnalysisSession, Engine};
use safeflow_corpus::figure2_example;
use safeflow_corpus::synthetic::{generate_core, SyntheticParams};
use safeflow_serve::proto::{self, Request};
use safeflow_serve::{inline_key, Client, Daemon, DaemonHandle, RunKind, ServeOptions, Status};
use safeflow_syntax::VirtualFs;
use safeflow_util::fault::{FaultPlan, FaultSite};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

fn default_opts() -> ServeOptions {
    ServeOptions::default()
}

fn start(opts: ServeOptions) -> DaemonHandle {
    Daemon::start(opts, "127.0.0.1:0").expect("bind loopback")
}

fn client(handle: &DaemonHandle) -> Client {
    Client::connect(&handle.addr().to_string(), 10_000).expect("connect")
}

fn fig2_files() -> Vec<(String, String)> {
    vec![("figure2.c".to_string(), figure2_example().to_string())]
}

/// A program heavy enough to occupy a worker for a visible stretch.
fn slow_files(tag: u32) -> Vec<(String, String)> {
    let core = generate_core(SyntheticParams { regions: 24, monitors: 24, depth: 12, branches: 3 });
    vec![(format!("slow{tag}.c"), format!("// variant {tag}\n{core}"))]
}

fn shutdown(handle: DaemonHandle) -> safeflow::MetricsSnapshot {
    handle.begin_shutdown();
    handle.wait()
}

fn tmp_dir(name: &str) -> std::path::PathBuf {
    let dir =
        std::env::temp_dir().join(format!("safeflow-serve-test-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn check_matches_one_shot_session_byte_for_byte() {
    let handle = start(default_opts());
    let files = fig2_files();
    let resp = client(&handle).check("figure2.c", &files, 0).unwrap();

    let config = AnalysisConfig::with_engine(Engine::Summary).normalized();
    let mut session = AnalysisSession::new(config);
    let mut fs = VirtualFs::new();
    for (n, c) in &files {
        fs.add(n.as_str(), c.as_str());
    }
    let outcome = session.check("figure2.c", &fs).unwrap();

    assert_eq!(resp.status, Status::from_exit_code(outcome.exit_code));
    assert_eq!(resp.rendered, outcome.rendered, "daemon report must be byte-identical");
    assert_eq!(resp.run, RunKind::Analyzed);
    shutdown(handle);
}

#[test]
fn second_identical_check_replays_warm() {
    let dir = tmp_dir("warm");
    let opts = ServeOptions { store_dir: Some(dir.clone()), ..default_opts() };
    let handle = start(opts);
    let files = fig2_files();
    let mut c = client(&handle);
    let first = c.check("figure2.c", &files, 0).unwrap();
    let second = c.check("figure2.c", &files, 0).unwrap();
    assert_eq!(first.run, RunKind::Analyzed);
    assert_eq!(second.run, RunKind::Replayed, "warm path must replay from the store");
    // Byte-identical findings; the report JSON differs only in its
    // metrics/timings sections, which the observability contract strips.
    assert_eq!(first.rendered, second.rendered);
    shutdown(handle);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn warm_restart_after_graceful_shutdown() {
    let dir = tmp_dir("restart");
    let files = fig2_files();

    let a = start(ServeOptions { store_dir: Some(dir.clone()), ..default_opts() });
    let cold = client(&a).check("figure2.c", &files, 0).unwrap();
    assert_eq!(cold.run, RunKind::Analyzed);
    shutdown(a);

    let b = start(ServeOptions { store_dir: Some(dir.clone()), ..default_opts() });
    let warm = client(&b).check("figure2.c", &files, 0).unwrap();
    assert_eq!(warm.run, RunKind::Replayed, "a new daemon must warm up from the store");
    assert_eq!(warm.rendered, cold.rendered);
    shutdown(b);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tight_deadline_degrades_instead_of_hanging() {
    // A 1 ms deadline alone races the analysis, which a fast host finishes
    // inside it. The budget fault on this request leaves it a deadline that
    // has already passed when the run starts, so it takes the over-deadline
    // path however fast the host is.
    let files = slow_files(1);
    let plan = FaultPlan::exhaust_at(FaultSite::ServeRequest, inline_key("slow1.c", &files));
    let handle = start(ServeOptions { fault_plan: Some(plan), ..default_opts() });
    let mut c = client(&handle);
    let resp = c.check("slow1.c", &files, 1).unwrap();
    assert!(
        matches!(resp.status, Status::Timeout | Status::DegradedBudget),
        "a request past its deadline must degrade, got {:?}",
        resp.status
    );
    // The daemon is unharmed: the next (undeadlined) request is served in
    // full.
    let ok = c.check("figure2.c", &fig2_files(), 0).unwrap();
    assert!(ok.status.is_report());
    assert_ne!(ok.status, Status::DegradedBudget);
    shutdown(handle);
}

#[test]
fn zero_capacity_queue_sheds_with_overloaded() {
    let opts = ServeOptions { queue_capacity: 0, ..default_opts() };
    let handle = start(opts);
    let mut c = client(&handle);
    let resp = c.check("figure2.c", &fig2_files(), 0).unwrap();
    assert_eq!(resp.status, Status::Overloaded);
    // Control-plane requests bypass the queue and still work.
    assert_eq!(c.ping().unwrap().status, Status::Clean);
    let snapshot = shutdown(handle);
    assert!(snapshot.sched.get("serve.shed_overloaded").copied().unwrap_or(0) >= 1);
}

/// A program whose check occupies a worker for a visible stretch: it
/// doubles on each attempt, so a test retrying with a larger one stays
/// honest on very fast machines without sleeping for seconds on slow ones.
fn blocker_files(attempt: u32) -> Vec<(String, String)> {
    let regions = 128 << attempt;
    let core =
        generate_core(SyntheticParams { regions, monitors: regions, depth: 12, branches: 3 });
    vec![(format!("slow{}.c", 100 + attempt), core)]
}

/// Starts checking `files` on its own connection.
fn spawn_check(
    handle: &DaemonHandle,
    files: Vec<(String, String)>,
    deadline_ms: u64,
) -> std::thread::JoinHandle<proto::Response> {
    let addr = handle.addr().to_string();
    std::thread::spawn(move || {
        let name = files[0].0.clone();
        Client::connect(&addr, 60_000).unwrap().check(&name, &files, deadline_ms).unwrap()
    })
}

/// Waits until the daemon has started a check: each check records its
/// `serve.wait_ns` as it leaves the queue. The metrics request is on the
/// control plane, so it bypasses the run gate the started check holds.
fn until_a_check_started(handle: &DaemonHandle) {
    let mut c = client(handle);
    while !c.metrics().unwrap().report_json.contains("\"serve.wait_ns\"") {
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn identical_queued_requests_coalesce() {
    // One worker; a slow check occupies it while two identical checks
    // wait behind it — the second must attach to the first. The slow check
    // doubles in size on each attempt until it outlasts the followers'
    // arrival.
    for attempt in 0..5u32 {
        let handle = start(ServeOptions { workers: 1, ..default_opts() });
        let blocker = spawn_check(&handle, blocker_files(attempt), 0);
        until_a_check_started(&handle);
        let followers: Vec<_> = (0..2).map(|_| spawn_check(&handle, fig2_files(), 0)).collect();
        let blocked = blocker.join().unwrap();
        assert!(blocked.status.is_report());
        let resps: Vec<_> = followers.into_iter().map(|f| f.join().unwrap()).collect();
        assert_eq!(resps[0].rendered, resps[1].rendered);
        let coalesced = resps.iter().filter(|r| r.run == RunKind::Coalesced).count();
        shutdown(handle);
        if coalesced == 1 {
            return; // exactly one leader, one follower
        }
    }
    panic!("identical queued requests never coalesced in 5 attempts");
}

#[test]
fn deadline_passing_in_the_queue_answers_timeout_without_running() {
    // One worker; a check with a 20 ms deadline queues behind a slow one,
    // so its deadline passes before its turn comes.
    for attempt in 0..5u32 {
        let handle = start(ServeOptions { workers: 1, ..default_opts() });
        let blocker = spawn_check(&handle, blocker_files(attempt), 0);
        until_a_check_started(&handle);
        let queued = spawn_check(&handle, fig2_files(), 20).join().unwrap();
        let blocked = blocker.join().unwrap();
        assert!(blocked.status.is_report());
        let snapshot = shutdown(handle);
        if queued.status == Status::Timeout {
            assert_eq!(queued.run, RunKind::None, "an expired check never runs");
            assert_eq!(snapshot.sched.get("serve.timeouts").copied(), Some(1));
            return;
        }
        // The blocker finished before the deadline passed: retry larger.
        assert!(queued.status.is_report(), "got {:?}", queued.status);
    }
    panic!("the queued check never expired behind the blocker in 5 attempts");
}

#[test]
fn queue_time_excludes_run_time() {
    let handle = start(default_opts());
    let resp = client(&handle).check("slow3.c", &slow_files(3), 0).unwrap();
    assert!(resp.status.is_report());
    assert!(
        resp.queue_ns < resp.run_ns,
        "an idle daemon starts a check at once: queued {} ns, ran {} ns",
        resp.queue_ns,
        resp.run_ns
    );
    shutdown(handle);
}

#[test]
fn injected_panic_is_contained_and_daemon_recovers() {
    let files = fig2_files();
    let key = inline_key("figure2.c", &files);
    let plan = FaultPlan::panic_at(FaultSite::ServeRequest, key);
    let opts = ServeOptions { fault_plan: Some(plan), ..default_opts() };
    let handle = start(opts);
    let mut c = client(&handle);

    let poisoned = c.check("figure2.c", &files, 0).unwrap();
    assert_eq!(poisoned.status, Status::DegradedFault);
    assert!(poisoned.rendered.contains("internal error"), "got: {}", poisoned.rendered);

    // A different request (different key) on the same root runs clean in
    // a rebuilt session.
    let other = vec![("figure2.c".to_string(), format!("// retry\n{}", figure2_example()))];
    let ok = c.check("figure2.c", &other, 0).unwrap();
    assert!(ok.status.is_report(), "got {:?}", ok.status);
    assert_ne!(ok.status, Status::DegradedFault);

    let snapshot = shutdown(handle);
    assert_eq!(snapshot.sched.get("serve.panics_contained").copied(), Some(1));
}

#[test]
fn injected_budget_fault_forces_degraded_path() {
    let files = slow_files(2);
    let key = inline_key("slow2.c", &files);
    let plan = FaultPlan::exhaust_at(FaultSite::ServeRequest, key);
    let opts = ServeOptions { fault_plan: Some(plan), ..default_opts() };
    let handle = start(opts);
    let resp = client(&handle).check("slow2.c", &files, 0).unwrap();
    assert_eq!(resp.status, Status::DegradedBudget, "rendered: {}", resp.rendered);
    shutdown(handle);
}

#[test]
fn truncated_response_frame_fails_one_client_not_the_daemon() {
    let files = fig2_files();
    let key = inline_key("figure2.c", &files);
    let plan = FaultPlan::new().with_fault(
        FaultSite::ServeFrame,
        Some(key),
        safeflow_util::fault::FaultKind::Panic,
    );
    let opts = ServeOptions { fault_plan: Some(plan), ..default_opts() };
    let handle = start(opts);

    let err = client(&handle).check("figure2.c", &files, 0).unwrap_err();
    assert!(
        matches!(err.kind(), std::io::ErrorKind::UnexpectedEof | std::io::ErrorKind::InvalidData),
        "torn frame must surface as a hard transport error, got: {err}"
    );

    // Other connections (and other requests) are unaffected.
    let mut c = client(&handle);
    assert_eq!(c.ping().unwrap().status, Status::Clean);
    let snapshot = shutdown(handle);
    assert_eq!(snapshot.sched.get("serve.frame_faults").copied(), Some(1));
}

#[test]
fn slow_loris_client_is_disconnected() {
    let opts = ServeOptions { io_timeout_ms: 100, ..default_opts() };
    let handle = start(opts);

    let mut loris = TcpStream::connect(handle.addr()).unwrap();
    // A frame header promising 1000 bytes, then silence.
    loris.write_all(&1000u32.to_le_bytes()).unwrap();
    loris.write_all(&[1, 2, 3]).unwrap();
    std::thread::sleep(Duration::from_millis(400));

    // The daemon must have hung up on the loris...
    loris.set_read_timeout(Some(Duration::from_millis(500))).unwrap();
    let mut buf = [0u8; 16];
    match loris.read(&mut buf) {
        Ok(0) => {} // clean close
        Ok(n) => panic!("expected disconnect, read {n} bytes"),
        Err(_) => {} // reset also fine
    }
    // ...while honest clients are served.
    assert_eq!(client(&handle).ping().unwrap().status, Status::Clean);
    shutdown(handle);
}

#[test]
fn malformed_and_mismatched_frames_answer_bad_request() {
    let handle = start(default_opts());

    // Garbage body: decodes to no request.
    let mut s = TcpStream::connect(handle.addr()).unwrap();
    proto::write_frame(&mut s, &[0xFF, 0xEE, 0xDD]).unwrap();
    let body = proto::read_frame(&mut s).unwrap();
    let resp = proto::decode_response(&body).unwrap();
    assert_eq!(resp.status, Status::BadRequest);

    // Wrong protocol version: same answer.
    let mut good = proto::encode_request(&Request::Ping).unwrap();
    good[0] = (proto::PROTO_VERSION + 1) as u8;
    let mut s2 = TcpStream::connect(handle.addr()).unwrap();
    proto::write_frame(&mut s2, &good).unwrap();
    let body2 = proto::read_frame(&mut s2).unwrap();
    assert_eq!(proto::decode_response(&body2).unwrap().status, Status::BadRequest);

    let snapshot = shutdown(handle);
    assert!(snapshot.sched.get("serve.bad_requests").copied().unwrap_or(0) >= 2);
}

#[test]
fn drain_refuses_new_work_but_answers_it_politely() {
    let handle = start(default_opts());
    let mut c = client(&handle);
    assert_eq!(c.ping().unwrap().status, Status::Clean);

    handle.begin_shutdown();
    // The open connection stays serviceable; new checks are refused with
    // a status, not a hang or a dropped socket.
    let resp = c.check("figure2.c", &fig2_files(), 0).unwrap();
    assert_eq!(resp.status, Status::ShuttingDown);
    handle.wait();
}

/// `safeflow serve --connect` opens a fresh connection per request, so
/// the accept loop must hand each one to its thread at once: it blocks in
/// `accept` instead of polling an idle listener.
#[test]
fn fresh_connections_are_answered_without_an_accept_delay() {
    let handle = start(default_opts());
    assert_eq!(client(&handle).ping().unwrap().status, Status::Clean, "warm-up");
    let t0 = std::time::Instant::now();
    for _ in 0..10 {
        assert_eq!(client(&handle).ping().unwrap().status, Status::Clean);
    }
    let elapsed = t0.elapsed();
    assert!(elapsed < Duration::from_millis(150), "10 fresh-connection pings took {elapsed:?}");
    shutdown(handle);
}

#[test]
fn shutdown_frame_drains_and_stops_the_daemon() {
    let dir = tmp_dir("shutdown-frame");
    let opts = ServeOptions { store_dir: Some(dir.clone()), ..default_opts() };
    let handle = start(opts);
    let mut c = client(&handle);
    assert!(c.check("figure2.c", &fig2_files(), 0).unwrap().status.is_report());

    let resp = c.shutdown().unwrap();
    assert_eq!(resp.status, Status::ShuttingDown);
    assert_eq!(resp.rendered, "drained");
    let snapshot = handle.wait();
    assert!(snapshot.sched.get("serve.requests").copied().unwrap_or(0) >= 2);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn multi_client_stress_never_hangs_and_sheds_cleanly() {
    let dir = tmp_dir("stress");
    let opts = ServeOptions {
        workers: 4,
        queue_capacity: 8,
        store_dir: Some(dir.clone()),
        ..default_opts()
    };
    let handle = start(opts);
    let addr = handle.addr().to_string();

    let mut threads = Vec::new();
    for t in 0..8u32 {
        let addr = addr.clone();
        threads.push(std::thread::spawn(move || {
            let mut statuses = Vec::new();
            for r in 0..6u32 {
                let mut c = Client::connect(&addr, 60_000).unwrap();
                let resp = match (t + r) % 4 {
                    // A rotating mix: shared fig2 (coalescable), per-thread
                    // variants, a tight deadline, and a ping.
                    0 => c.check("figure2.c", &fig2_files(), 0).unwrap(),
                    1 => {
                        let files = vec![(
                            "figure2.c".to_string(),
                            format!("// t{t}\n{}", figure2_example()),
                        )];
                        c.check("figure2.c", &files, 0).unwrap()
                    }
                    2 => c.check("figure2.c", &fig2_files(), 1).unwrap(),
                    _ => c.ping().unwrap(),
                };
                statuses.push(resp.status);
            }
            statuses
        }));
    }
    let mut all = Vec::new();
    for t in threads {
        all.extend(t.join().expect("no client may hang or die"));
    }
    // Every response is one of the contract's statuses; nothing leaks a
    // panic (DegradedFault) because no fault plan is armed.
    for s in &all {
        assert_ne!(*s, Status::DegradedFault, "uninjected panic escaped");
        assert_ne!(*s, Status::BadRequest);
    }
    let snapshot = shutdown(handle);
    assert_eq!(snapshot.sched.get("serve.panics_contained").copied().unwrap_or(0), 0);
    assert!(snapshot.sched.get("serve.requests").copied().unwrap_or(0) >= 48);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn watch_recheck_keeps_the_store_warm() {
    let dir = tmp_dir("watch");
    let src_dir = tmp_dir("watch-src");
    let src = src_dir.join("prog.c");
    std::fs::write(&src, figure2_example()).unwrap();

    let opts =
        ServeOptions { store_dir: Some(dir.clone()), watch_poll_ms: Some(25), ..default_opts() };
    let handle = start(opts);
    let mut c = client(&handle);
    let paths = vec![src.to_string_lossy().to_string()];

    let first = c.check_paths(&paths, 0).unwrap();
    assert_eq!(first.run, RunKind::Analyzed);

    // Touch the file with different content; the watcher must re-analyze
    // in the background so the next client hit replays warm. Wait for the
    // watcher's run to *complete* (the daemon's run histogram reaches two
    // entries: the first check plus the re-check) before asking, so the
    // replay below is provably the watcher's doing, not our own.
    std::fs::write(&src, format!("// edited\n{}", figure2_example())).unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        std::thread::sleep(Duration::from_millis(50));
        let m = c.metrics().unwrap();
        let doc = safeflow_util::json::Json::parse(&m.report_json).unwrap();
        let runs = doc
            .get("dist")
            .and_then(|d| d.get("serve.run_ns"))
            .and_then(|h| h.get("count"))
            .and_then(|c| match c {
                safeflow_util::json::Json::UInt(n) => Some(*n),
                _ => None,
            })
            .unwrap_or(0);
        if runs >= 2 {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "watch re-check never ran (runs = {runs})");
    }
    let again = c.check_paths(&paths, 0).unwrap();
    assert_eq!(again.run, RunKind::Replayed, "watcher must have warmed the store");
    let snapshot = shutdown(handle);
    assert!(snapshot.sched.get("serve.watch_rechecks").copied().unwrap_or(0) >= 1);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&src_dir);
}
