//! The `serve` subcommand: run (or talk to) the resident analysis daemon.
//!
//! Daemon mode binds a loopback socket and serves check requests until a
//! shutdown frame or SIGTERM/SIGINT, answering every admitted check before
//! exiting. Client mode (`--connect`) sends one request to a running
//! daemon and maps its response status back onto the CLI exit-code
//! contract.

use crate::{usage_error, AnalysisFlags};
use safeflow::{Engine, FaultSite};
use safeflow_serve::{Client, Daemon, ServeOptions, Status};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Set by the SIGTERM/SIGINT handler; polled by the daemon loop.
static TERM_FLAG: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
fn install_term_handler() {
    // std links libc on unix; binding `signal` directly keeps the
    // workspace dependency-free. The handler only touches an atomic,
    // which is async-signal-safe.
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    extern "C" fn on_term(_sig: i32) {
        TERM_FLAG.store(true, Ordering::SeqCst);
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGTERM, on_term as *const () as usize);
        signal(SIGINT, on_term as *const () as usize);
    }
}

#[cfg(not(unix))]
fn install_term_handler() {}

/// What client mode (`--connect`) should send.
enum ClientAction {
    Check(Vec<String>),
    Ping,
    Metrics,
    Shutdown,
}

pub fn run_serve(args: &[String]) -> ExitCode {
    let mut listen = "127.0.0.1:0".to_string();
    let mut connect: Option<String> = None;
    let mut store_dir: Option<String> = None;
    let mut port_file: Option<String> = None;
    let mut workers = 2usize;
    let mut queue = 32usize;
    let mut deadline_ms: Option<u64> = None;
    let mut io_timeout_ms = 10_000u64;
    let mut watch_poll_ms: Option<u64> = None;
    let mut dump_metrics = false;
    let mut flags = AnalysisFlags::default();
    let mut action_ping = false;
    let mut action_shutdown = false;
    let mut files: Vec<String> = Vec::new();

    let mut i = 0;
    while i < args.len() {
        match flags.parse(args, &mut i) {
            Ok(true) => {
                i += 1;
                continue;
            }
            Ok(false) => {}
            Err(code) => return code,
        }
        match args[i].as_str() {
            "--listen" => {
                i += 1;
                match args.get(i) {
                    Some(a) => listen = a.clone(),
                    None => return usage_error("--listen requires an ADDR:PORT argument"),
                }
            }
            "--connect" => {
                i += 1;
                match args.get(i) {
                    Some(a) => connect = Some(a.clone()),
                    None => return usage_error("--connect requires an ADDR:PORT argument"),
                }
            }
            "--store" => {
                i += 1;
                match args.get(i) {
                    Some(dir) => store_dir = Some(dir.clone()),
                    None => return usage_error("--store requires a directory argument"),
                }
            }
            "--port-file" => {
                i += 1;
                match args.get(i) {
                    Some(p) => port_file = Some(p.clone()),
                    None => return usage_error("--port-file requires a path argument"),
                }
            }
            "--workers" => {
                i += 1;
                match args.get(i).and_then(|n| n.parse::<usize>().ok()) {
                    Some(n) if n >= 1 => workers = n,
                    _ => return usage_error("--workers takes a positive integer"),
                }
            }
            "--queue" => {
                i += 1;
                match args.get(i).and_then(|n| n.parse::<usize>().ok()) {
                    Some(n) if n >= 1 => queue = n,
                    _ => return usage_error("--queue takes a positive integer"),
                }
            }
            "--deadline-ms" => {
                i += 1;
                match args.get(i).and_then(|n| n.parse::<u64>().ok()) {
                    Some(n) if n >= 1 => deadline_ms = Some(n),
                    _ => return usage_error("--deadline-ms takes a positive integer"),
                }
            }
            "--io-timeout-ms" => {
                i += 1;
                match args.get(i).and_then(|n| n.parse::<u64>().ok()) {
                    Some(n) if n >= 1 => io_timeout_ms = n,
                    _ => return usage_error("--io-timeout-ms takes a positive integer"),
                }
            }
            "--watch" => watch_poll_ms = Some(200),
            flag if flag.starts_with("--watch=") => match flag["--watch=".len()..].parse::<u64>() {
                Ok(n) if n >= 1 => watch_poll_ms = Some(n),
                _ => return usage_error("--watch=MS takes a positive poll interval"),
            },
            "--metrics" => dump_metrics = true,
            "--help" | "-h" => {
                crate::print_help();
                return ExitCode::SUCCESS;
            }
            "--ping" => action_ping = true,
            "--shutdown" => action_shutdown = true,
            flag if flag.starts_with('-') => {
                return usage_error(&format!("serve: unknown flag `{flag}` (try --help)"));
            }
            file => files.push(file.to_string()),
        }
        i += 1;
    }

    if let Some(addr) = connect {
        let action = if action_shutdown {
            ClientAction::Shutdown
        } else if action_ping {
            ClientAction::Ping
        } else if dump_metrics {
            ClientAction::Metrics
        } else if !files.is_empty() {
            ClientAction::Check(files)
        } else {
            return usage_error(
                "serve --connect needs files to check, or --ping/--metrics/--shutdown",
            );
        };
        return run_client(&addr, action, deadline_ms, io_timeout_ms);
    }
    if action_ping || action_shutdown {
        return usage_error("--ping/--shutdown require --connect ADDR");
    }
    if !files.is_empty() {
        return usage_error("daemon mode takes no file arguments (clients send them)");
    }

    // Serve sites go to the protocol-layer plan; engine sites would
    // disable the store (and with it the whole warm path) in every
    // resident session, so refuse them here.
    if flags
        .injects
        .iter()
        .any(|(s, ..)| !matches!(s, FaultSite::ServeRequest | FaultSite::ServeFrame))
    {
        return usage_error(
            "serve only accepts serve-request/serve-frame injection sites \
             (engine sites would disable the resident store)",
        );
    }
    let opts = ServeOptions {
        analysis: flags.config(Engine::Summary),
        store_dir: store_dir.map(std::path::PathBuf::from),
        workers,
        queue_capacity: queue,
        default_deadline_ms: deadline_ms,
        io_timeout_ms,
        watch_poll_ms,
        fault_plan: flags.fault_plan(),
    };

    install_term_handler();
    let handle = match Daemon::start(opts, &listen) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("safeflow serve: cannot bind {listen}: {e}");
            return ExitCode::from(2);
        }
    };
    let addr = handle.addr();
    if let Some(path) = &port_file {
        // Written atomically (temp + rename) so a polling script never
        // reads a half-written address.
        let tmp = format!("{path}.tmp");
        if std::fs::write(&tmp, format!("{addr}\n")).is_ok() {
            let _ = std::fs::rename(&tmp, path);
        }
    }
    out!("serve: listening on {addr}\n");

    // Wait for a shutdown frame (observed via the handle) or a signal.
    loop {
        if TERM_FLAG.load(Ordering::SeqCst) {
            handle.begin_shutdown();
        }
        if handle.is_shutting_down() {
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    let snapshot = handle.wait();
    if dump_metrics {
        out!("-- metrics --\n");
        out!("{}", snapshot.render_text());
    }
    out!("serve: drained, exiting\n");
    ExitCode::SUCCESS
}

/// Client mode: one request, response printed, status mapped back onto
/// the exit-code contract (statuses 0–4 pass through; Timeout exits 4
/// like any exhausted budget; Overloaded/BadRequest/ShuttingDown exit 2).
fn run_client(
    addr: &str,
    action: ClientAction,
    deadline_ms: Option<u64>,
    io_timeout_ms: u64,
) -> ExitCode {
    let mut client = match Client::connect(addr, io_timeout_ms) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("safeflow serve: cannot connect to {addr}: {e}");
            return ExitCode::from(2);
        }
    };
    let resp = match action {
        ClientAction::Check(files) => client.check_paths(&files, deadline_ms.unwrap_or(0)),
        ClientAction::Ping => client.ping(),
        ClientAction::Metrics => client.metrics(),
        ClientAction::Shutdown => client.shutdown(),
    };
    match resp {
        Ok(resp) => {
            if !resp.rendered.is_empty() {
                out!("{}", resp.rendered);
                if !resp.rendered.ends_with('\n') {
                    out!("\n");
                }
            }
            if resp.status == Status::Clean
                && !resp.report_json.is_empty()
                && resp.rendered == "metrics"
            {
                out!("{}\n", resp.report_json);
            }
            let code = match resp.status as u8 {
                c @ 0..=4 => c,
                5 => 4, // Timeout degrades like any exhausted budget
                _ => 2, // Overloaded / BadRequest / ShuttingDown: unusable
            };
            if resp.status == Status::ShuttingDown {
                return ExitCode::SUCCESS; // requested drain: success
            }
            ExitCode::from(code)
        }
        Err(e) => {
            eprintln!("safeflow serve: request failed: {e}");
            ExitCode::from(2)
        }
    }
}
