//! `safeflow` — command-line interface to the SafeFlow analyzer.
//!
//! ```text
//! safeflow FILE.c [FILE2.c ...]    analyze C sources (first file is the root)
//! safeflow check FILES --store DIR incremental analysis against a summary store
//! safeflow oracle --seeds A..B     differential oracle: cross-check optimized
//!                                  engines against the reference analyzer
//! safeflow --table1                regenerate the paper's Table 1 on the corpus
//! safeflow --fig2                  analyze the paper's Figure 2 running example
//! safeflow --engine summary ...    use the ESP-style summary engine
//! safeflow --jobs 4 ...            parallel analysis on 4 worker threads
//! safeflow --budget K=V[,..] ...   bound solver/fixpoint/instruction budgets
//! safeflow --format json ...       machine-readable report (stable schema)
//! safeflow --metrics[=json] ...    append the run's observability metrics
//! ```
//!
//! Exit codes form the degradation contract: `0` clean, `1` warnings only,
//! `2` errors/violations (or unusable input), `3` internal error (a
//! contained panic degraded part of the run), `4` a resource budget was
//! exhausted. Degraded runs still print every finding reached plus a
//! `DEGRADED RUN` block naming the affected functions.

use safeflow::{
    AnalysisConfig, AnalysisError, AnalysisSession, Analyzer, Budget, CriticalCall, Engine,
    FaultKind, FaultPlan, FaultSite, ImplicitFlowMode, Json, MetricsSnapshot, RecvSpec,
    SessionOutcome,
};
use safeflow_corpus::{systems, System};
use safeflow_syntax::VirtualFs;
use std::process::ExitCode;

/// `print!` through [`write_stdout`], the one way the CLI writes to stdout.
macro_rules! out {
    ($($arg:tt)*) => { crate::write_stdout(format_args!($($arg)*)) };
}

mod serve_cmd;

/// Writes to stdout. A reader that stops early (`safeflow --table1 | head
/// -1`) closes the pipe, which is no fault of the run: the write is
/// dropped, nothing goes to stderr, and the run keeps its exit code.
fn write_stdout(args: std::fmt::Arguments) {
    if let Err(e) = std::io::Write::write_fmt(&mut std::io::stdout(), args) {
        if e.kind() != std::io::ErrorKind::BrokenPipe {
            panic!("failed printing to stdout: {e}");
        }
    }
}

fn main() -> ExitCode {
    // Last-resort containment: anything that escapes the analyzer's own
    // panic isolation still maps onto the exit-code contract (3 =
    // internal error) instead of the process's default 101.
    match std::panic::catch_unwind(run) {
        Ok(code) => code,
        Err(payload) => {
            eprintln!(
                "safeflow: internal error: {}",
                safeflow_util::pool::panic_message(&*payload)
            );
            ExitCode::from(3)
        }
    }
}

/// How `--metrics` renders the run's observability counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MetricsOut {
    Text,
    Json,
}

/// Output options threaded from the argument parser to the runners.
#[derive(Debug, Clone, Copy, Default)]
struct OutputOpts {
    dot: bool,
    /// `--format json`: print the stable `safeflow-report-v1` document
    /// instead of the human-readable report.
    format_json: bool,
    metrics: Option<MetricsOut>,
}

/// Reports an argument error: the message plus the USAGE block, both on
/// stderr, then exit code 2 (unusable input).
fn usage_error(msg: &str) -> ExitCode {
    eprintln!("safeflow: {msg}");
    eprintln!("\n{USAGE}\n(run `safeflow --help` for the full option list)");
    ExitCode::from(2)
}

fn run() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut flags = AnalysisFlags::default();
    let mut files: Vec<String> = Vec::new();
    let mut table1 = false;
    let mut fig2 = false;
    let mut out = OutputOpts::default();
    let mut store_dir: Option<String> = None;

    // `check` and `oracle` are subcommands: they must come first, before
    // any file.
    let check_mode = args.first().map(String::as_str) == Some("check");
    if check_mode {
        args.remove(0);
    }
    if !check_mode && args.first().map(String::as_str) == Some("oracle") {
        args.remove(0);
        return run_oracle(&args);
    }
    if !check_mode && args.first().map(String::as_str) == Some("serve") {
        args.remove(0);
        return serve_cmd::run_serve(&args);
    }

    let mut i = 0;
    while i < args.len() {
        match flags.parse(&args, &mut i) {
            Ok(true) => {
                i += 1;
                continue;
            }
            Ok(false) => {}
            Err(code) => return code,
        }
        match args[i].as_str() {
            "--table1" => table1 = true,
            "--fig2" => fig2 = true,
            "--dot" => out.dot = true,
            "--metrics" => out.metrics = Some(MetricsOut::Text),
            "--metrics=json" => out.metrics = Some(MetricsOut::Json),
            "--format" => {
                i += 1;
                match args.get(i).map(String::as_str) {
                    Some("json") => out.format_json = true,
                    Some("text") => out.format_json = false,
                    Some(other) => {
                        return usage_error(&format!(
                            "unknown format `{other}` (use `json` or `text`)"
                        ))
                    }
                    None => return usage_error("--format requires an argument (json or text)"),
                }
            }
            "--store" => {
                i += 1;
                match args.get(i) {
                    Some(dir) => store_dir = Some(dir.clone()),
                    None => return usage_error("--store requires a directory argument"),
                }
            }
            "--help" | "-h" => {
                print_help();
                return ExitCode::SUCCESS;
            }
            flag if flag.starts_with('-') => {
                return usage_error(&format!("unknown flag `{flag}` (try --help)"));
            }
            file => files.push(file.to_string()),
        }
        i += 1;
    }

    if flags
        .injects
        .iter()
        .any(|(s, ..)| matches!(s, FaultSite::ServeRequest | FaultSite::ServeFrame))
    {
        return usage_error(
            "serve-request/serve-frame injection sites only apply to the `serve` subcommand",
        );
    }
    // `check` defaults to the summary engine: only it populates the
    // per-SCC store. An explicit `--engine context` still works (the
    // whole-program replay manifest is engine-agnostic).
    let default_engine = if check_mode { Engine::Summary } else { Engine::ContextSensitive };
    let mut config = flags.config(default_engine);
    config.fault_plan = flags.fault_plan();

    if store_dir.is_some() && !check_mode {
        return usage_error("--store only applies to the `check` subcommand");
    }
    if table1 {
        return run_table1(&config, &out);
    }
    if fig2 {
        let mut fs = VirtualFs::new();
        fs.add("figure2.c", safeflow_corpus::figure2_example());
        return run_check(config, store_dir, &out, |s| s.check("figure2.c", &fs));
    }
    if files.is_empty() {
        print_help();
        return ExitCode::from(2);
    }
    run_check(config, store_dir, &out, |s| s.check_files(&files))
}

/// The analysis flags the plain CLI and `serve` share: `--engine`,
/// `--jobs`/`-j`, `--budget`, `--critical-call`, `--recv`,
/// `--implicit-flow`, `--inject` and `--fault-seed`.
#[derive(Debug)]
struct AnalysisFlags {
    /// `None` leaves the choice to the caller's default engine.
    engine: Option<Engine>,
    jobs: usize,
    budget: Budget,
    criticals: Vec<CriticalCall>,
    recvs: Vec<RecvSpec>,
    implicit_flow: Option<ImplicitFlowMode>,
    injects: Vec<(FaultSite, Option<u64>, FaultKind)>,
    fault_seed: Option<(u64, f64)>,
}

impl Default for AnalysisFlags {
    fn default() -> AnalysisFlags {
        AnalysisFlags {
            engine: None,
            jobs: 1,
            budget: Budget::unlimited(),
            criticals: Vec::new(),
            recvs: Vec::new(),
            implicit_flow: None,
            injects: Vec::new(),
            fault_seed: None,
        }
    }
}

impl AnalysisFlags {
    /// Consumes `args[*i]` when it is one of the shared flags, leaving `*i`
    /// on its last argument: `Ok(true)` when it was one, `Ok(false)` when
    /// it is the caller's to parse, and the usage error's exit code when
    /// its value is missing or malformed.
    fn parse(&mut self, args: &[String], i: &mut usize) -> Result<bool, ExitCode> {
        let flag = args[*i].as_str();
        let value = args.get(*i + 1);
        let spec =
            |example: &str| value.ok_or_else(|| format!("{flag} requires an argument ({example})"));
        let parsed = match flag {
            "--engine" => parse_engine(value).map(|e| self.engine = Some(e)),
            "--jobs" | "-j" => parse_jobs(value).map(|n| self.jobs = n),
            "--budget" => spec("e.g. solver-steps=1000").and_then(|s| {
                parse_budget(s, &mut self.budget).map_err(|e| format!("--budget: {e}"))
            }),
            "--critical-call" => spec("NAME:ARG[:LABEL]")
                .and_then(|s| parse_critical(s).map_err(|e| format!("--critical-call: {e}")))
                .map(|call| self.criticals.push(call)),
            "--recv" => spec("NAME:SOCK_ARG:BUF_ARG")
                .and_then(|s| parse_recv(s).map_err(|e| format!("--recv: {e}")))
                .map(|recv| self.recvs.push(recv)),
            "--implicit-flow" => spec("strict, taint-only, or report-separately")
                .and_then(|m| {
                    ImplicitFlowMode::parse(m).ok_or_else(|| {
                        format!(
                            "unknown implicit-flow mode `{m}` \
                             (use strict, taint-only, or report-separately)"
                        )
                    })
                })
                .map(|mode| self.implicit_flow = Some(mode)),
            "--inject" => spec("SITE[:KEY][:KIND]")
                .and_then(|s| parse_inject(s).map_err(|e| format!("--inject: {e}")))
                .map(|rule| self.injects.push(rule)),
            "--fault-seed" => spec("SEED[:RATE]")
                .and_then(|s| parse_fault_seed(s).map_err(|e| format!("--fault-seed: {e}")))
                .map(|sr| self.fault_seed = Some(sr)),
            _ => return Ok(false),
        };
        *i += 1;
        parsed.map(|()| true).map_err(|e| usage_error(&e))
    }

    /// The analysis configuration these flags describe, with
    /// `default_engine` unless `--engine` chose one. It carries no fault
    /// plan: the caller decides where `--inject` sites apply.
    fn config(&self, default_engine: Engine) -> AnalysisConfig {
        let mut builder = AnalysisConfig::builder()
            .engine(self.engine.unwrap_or(default_engine))
            .jobs(self.jobs)
            .budget(self.budget.clone());
        if let Some(mode) = self.implicit_flow {
            builder = builder.implicit_flow(mode);
        }
        for call in &self.criticals {
            builder = builder.critical_call(call.clone());
        }
        for spec in &self.recvs {
            builder = builder.recv_function(spec.clone());
        }
        builder.build_config()
    }

    /// The fault plan `--inject` and `--fault-seed` describe, if either
    /// was given.
    fn fault_plan(&self) -> Option<FaultPlan> {
        if self.fault_seed.is_none() && self.injects.is_empty() {
            return None;
        }
        let plan = match self.fault_seed {
            Some((seed, rate)) => FaultPlan::seeded(seed, rate),
            None => FaultPlan::new(),
        };
        Some(
            self.injects
                .iter()
                .fold(plan, |plan, &(site, key, kind)| plan.with_fault(site, key, kind)),
        )
    }
}

/// Parses a `--critical-call` spec: `NAME:ARG[:LABEL]` (zero-based
/// argument index, optional clearance label from the declared policy).
fn parse_critical(spec: &str) -> Result<CriticalCall, String> {
    let (name, rest) = spec
        .split_once(':')
        .ok_or_else(|| format!("`{spec}` is not of the form NAME:ARG[:LABEL]"))?;
    if name.is_empty() {
        return Err("function name is empty".to_string());
    }
    let (arg, clearance) = match rest.split_once(':') {
        Some((a, label)) => {
            if label.is_empty() {
                return Err("clearance label is empty".to_string());
            }
            (a, Some(label))
        }
        None => (rest, None),
    };
    let arg = arg.parse::<usize>().map_err(|_| format!("`{arg}` is not an argument index"))?;
    Ok(match clearance {
        Some(label) => CriticalCall::with_clearance(name, arg, label),
        None => CriticalCall::new(name, arg),
    })
}

/// Parses a `--recv` spec: `NAME:SOCK_ARG:BUF_ARG` (zero-based indices).
fn parse_recv(spec: &str) -> Result<RecvSpec, String> {
    let parts: Vec<&str> = spec.split(':').collect();
    let [name, sock, buf] = parts.as_slice() else {
        return Err(format!("`{spec}` is not of the form NAME:SOCK_ARG:BUF_ARG"));
    };
    if name.is_empty() {
        return Err("function name is empty".to_string());
    }
    let sock = sock.parse::<usize>().map_err(|_| format!("`{sock}` is not an argument index"))?;
    let buf = buf.parse::<usize>().map_err(|_| format!("`{buf}` is not an argument index"))?;
    Ok(RecvSpec::new(*name, sock, buf))
}

/// Plain runs and the `check` subcommand: one session check, replaying
/// from or saving to the persistent store when `--store` is set.
fn run_check(
    config: AnalysisConfig,
    store_dir: Option<String>,
    out: &OutputOpts,
    check: impl FnOnce(&mut AnalysisSession) -> Result<SessionOutcome, AnalysisError>,
) -> ExitCode {
    let mut session = match &store_dir {
        Some(dir) => match AnalysisSession::with_store(config, std::path::Path::new(dir)) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("safeflow: {e}");
                return ExitCode::from(2);
            }
        },
        None => AnalysisSession::new(config),
    };
    match check(&mut session) {
        Ok(outcome) => {
            if out.format_json {
                out!("{}\n", outcome.report_json.render());
            } else {
                out!("{}", outcome.rendered);
            }
            if out.dot {
                emit_dot(&outcome.report_json);
            }
            print_metrics(&outcome.metrics, out);
            ExitCode::from(outcome.exit_code)
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}

/// The `oracle` subcommand: generate seeded programs and cross-check every
/// optimized engine configuration against the naive reference analyzer.
/// Exit 0 = every configuration agreed, 2 = at least one divergence (or
/// bad arguments).
fn run_oracle(args: &[String]) -> ExitCode {
    let mut opts = safeflow_oracle::OracleOptions::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--seeds" => {
                i += 1;
                let Some(spec) = args.get(i) else {
                    return usage_error("--seeds requires an argument (e.g. 0..32)");
                };
                match parse_seed_range(spec) {
                    Ok((lo, hi)) => {
                        opts.seed_lo = lo;
                        opts.seed_hi = hi;
                    }
                    Err(e) => return usage_error(&format!("--seeds: {e}")),
                }
            }
            "--minimize" => opts.minimize = true,
            "--repro-dir" => {
                i += 1;
                match args.get(i) {
                    Some(dir) => opts.repro_dir = Some(std::path::PathBuf::from(dir)),
                    None => return usage_error("--repro-dir requires a directory argument"),
                }
            }
            "--jobs" | "-j" => {
                i += 1;
                match parse_jobs(args.get(i)) {
                    Ok(n) => opts.jobs = n,
                    Err(e) => return usage_error(&e),
                }
            }
            "--help" | "-h" => {
                print_help();
                return ExitCode::SUCCESS;
            }
            other => return usage_error(&format!("oracle: unexpected argument `{other}`")),
        }
        i += 1;
    }
    if opts.seed_lo >= opts.seed_hi {
        return usage_error("--seeds range is empty (use LO..HI with LO < HI)");
    }
    let report = safeflow_oracle::run(&opts);
    out!("{}", report.render());
    ExitCode::from(report.exit_code())
}

/// Parses a `--seeds` spec: `LO..HI` (half-open) or a single seed `N`
/// (meaning `N..N+1`).
fn parse_seed_range(spec: &str) -> Result<(u64, u64), String> {
    if let Some((lo, hi)) = spec.split_once("..") {
        let lo = lo.parse::<u64>().map_err(|_| format!("`{lo}` is not a seed number"))?;
        let hi = hi.parse::<u64>().map_err(|_| format!("`{hi}` is not a seed number"))?;
        Ok((lo, hi))
    } else {
        let n = spec.parse::<u64>().map_err(|_| format!("`{spec}` is not a seed number"))?;
        Ok((n, n + 1))
    }
}

/// Parses a `--budget` spec (`key=value[,key=value...]`) into `budget`.
/// Keys: `solver-steps`, `fixpoint-rounds`, `max-insts`, `deadline-ms`.
fn parse_budget(spec: &str, budget: &mut Budget) -> Result<(), String> {
    for part in spec.split(',').filter(|p| !p.is_empty()) {
        let (key, value) =
            part.split_once('=').ok_or_else(|| format!("`{part}` is not of the form key=value"))?;
        let parse = |what: &str| -> Result<u64, String> {
            value.parse::<u64>().map_err(|_| format!("{what} takes a number, got `{value}`"))
        };
        match key {
            "solver-steps" => budget.solver_steps = Some(parse("solver-steps")?),
            "fixpoint-rounds" => {
                let n = parse("fixpoint-rounds")?;
                budget.fixpoint_rounds =
                    Some(u32::try_from(n).map_err(|_| format!("fixpoint-rounds `{n}` too large"))?);
            }
            "max-insts" => budget.max_function_insts = Some(parse("max-insts")? as usize),
            "deadline-ms" => budget.deadline_ms = Some(parse("deadline-ms")?),
            other => {
                return Err(format!(
                    "unknown budget key `{other}` \
                     (use solver-steps, fixpoint-rounds, max-insts, deadline-ms)"
                ))
            }
        }
    }
    Ok(())
}

/// Parses the argument of `--jobs`: a positive thread count or `auto`.
fn parse_jobs(arg: Option<&String>) -> Result<usize, String> {
    match arg.map(String::as_str) {
        Some("auto") => Ok(safeflow_util::pool::default_jobs()),
        Some(n) => match n.parse::<usize>() {
            Ok(n) if n >= 1 => Ok(n),
            _ => Err(format!("--jobs takes a positive integer or `auto`, got {n:?}")),
        },
        None => Err("--jobs requires an argument (a thread count or `auto`)".to_string()),
    }
}

/// Parses the argument of `--engine`: `summary` or `context`.
fn parse_engine(arg: Option<&String>) -> Result<Engine, String> {
    match arg.map(String::as_str) {
        Some("summary") => Ok(Engine::Summary),
        Some("context") | Some("context-sensitive") => Ok(Engine::ContextSensitive),
        other => Err(format!("unknown engine {other:?} (use `summary` or `context`)")),
    }
}

/// Parses an `--inject` spec: `SITE[:KEY][:KIND]` where SITE is
/// `scc`/`solver`/`cache` (engine sites) or `serve-request`/`serve-frame`
/// (protocol sites, `serve` subcommand only), KEY a number (omitted or
/// `*` = every key), and KIND `panic` (default) or `budget`.
fn parse_inject(spec: &str) -> Result<(FaultSite, Option<u64>, FaultKind), String> {
    let mut parts = spec.split(':');
    let site = match parts.next() {
        Some("scc") => FaultSite::SccAnalysis,
        Some("solver") => FaultSite::Solver,
        Some("cache") => FaultSite::SummaryCache,
        Some("serve-request") => FaultSite::ServeRequest,
        Some("serve-frame") => FaultSite::ServeFrame,
        other => {
            return Err(format!(
                "unknown site {other:?} \
                 (use scc, solver, cache, serve-request, or serve-frame)"
            ));
        }
    };
    let mut key = None;
    let mut kind = FaultKind::Panic;
    for part in parts {
        match part {
            "panic" => kind = FaultKind::Panic,
            "budget" => kind = FaultKind::BudgetExhaustion,
            "*" => key = None,
            n => {
                key = Some(n.parse::<u64>().map_err(|_| {
                    format!("`{n}` is not a key number, `*`, `panic`, or `budget`")
                })?);
            }
        }
    }
    Ok((site, key, kind))
}

/// Parses a `--fault-seed` spec: `SEED[:RATE]` (rate defaults to 0.1).
fn parse_fault_seed(spec: &str) -> Result<(u64, f64), String> {
    let (seed, rate) = match spec.split_once(':') {
        Some((s, r)) => (s, Some(r)),
        None => (spec, None),
    };
    let seed = seed.parse::<u64>().map_err(|_| format!("seed `{seed}` is not a number"))?;
    let rate = match rate {
        Some(r) => {
            let r = r.parse::<f64>().map_err(|_| format!("rate `{r}` is not a number"))?;
            if !(0.0..=1.0).contains(&r) {
                return Err(format!("rate {r} outside [0, 1]"));
            }
            r
        }
        None => 0.1,
    };
    Ok((seed, rate))
}

/// The USAGE block, shared by `--help` (stdout) and argument-error
/// reporting (stderr).
const USAGE: &str = "USAGE:\n\
     \x20 safeflow [OPTIONS] FILE.c [FILE2.c ...]\n\
     \x20 safeflow check [OPTIONS] FILE.c [FILE2.c ...] [--store DIR]\n\
     \x20 safeflow serve [--listen ADDR] [--store DIR] [--watch[=MS]] ...\n\
     \x20 safeflow serve --connect ADDR FILE.c ... | --ping | --shutdown\n\
     \x20 safeflow oracle --seeds A..B [--minimize] [--repro-dir DIR] [--jobs N]\n\
     \x20 safeflow --table1 | --fig2";

fn print_help() {
    out!(
        "safeflow — static analysis enforcing safe value flow (DSN 2006)\n\
         \n\
         {USAGE}\n\
         \n\
         The `check` subcommand runs an incremental session: with --store,\n\
         prior per-SCC summaries are loaded from DIR, only changed SCCs\n\
         (plus their transitive callers) re-analyze, and an unchanged\n\
         input replays the stored report without re-analyzing anything.\n\
         `check` defaults to the summary engine.\n\
         \n\
         The `serve` subcommand keeps analysis sessions resident in a\n\
         loopback daemon so repeat checks answer at warm-path latency.\n\
         It takes --engine (default: summary), --jobs, --budget,\n\
         --critical-call, --recv and --implicit-flow as under OPTIONS, plus:\n\
         \x20 --listen ADDR:PORT      bind address (default 127.0.0.1:0)\n\
         \x20 --port-file PATH        write the bound address atomically\n\
         \x20 --workers N             checks that run at once (default 2);\n\
         \x20                         each runs on its client's connection\n\
         \x20 --queue N               checks that may wait to start\n\
         \x20                         (default 32); one more sheds with\n\
         \x20                         `Overloaded`\n\
         \x20 --deadline-ms N         default per-request deadline; overruns\n\
         \x20                         degrade (exit-4 path), never hang\n\
         \x20 --io-timeout-ms N       socket timeout / slow-client guard\n\
         \x20 --watch[=MS]            re-check served roots on file changes\n\
         \x20 --metrics               dump serve.* metrics after the drain\n\
         \x20 --inject serve-request[:KEY][:KIND] | serve-frame[:KEY]\n\
         \x20                         protocol-layer fault drills (testing)\n\
         Client mode: `serve --connect ADDR FILES...` checks via a running\n\
         daemon (statuses 0-4 map onto the exit codes below; a timeout\n\
         exits 4, overload/draining exit 2); `--ping`, `--metrics`, and\n\
         `--shutdown` (graceful drain) are also available. The daemon\n\
         drains on SIGTERM/SIGINT and restarts warm from its --store.\n\
         \n\
         The `oracle` subcommand generates seeded annotation-bearing\n\
         programs and cross-checks the parallel, warm-cache, store-replay,\n\
         and incremental engine configurations against the naive\n\
         reference analyzer; any report difference (modulo the observability\n\
         contract's stripped sections) is a divergence. The context-engine\n\
         configuration runs the context-sensitive engine and must report\n\
         the same findings (warnings, errors without their flows,\n\
         violations) as the reference. --minimize shrinks\n\
         divergent programs; --repro-dir writes them out. Exit 0 = all\n\
         configurations agree, 2 = divergence.\n\
         \n\
         OPTIONS:\n\
         \x20 --store DIR                persistent summary store (check only);\n\
         \x20                            a corrupt/mismatched store degrades to a\n\
         \x20                            cold run, never a stale result\n\
         \x20 --engine summary|context   phase-3 engine (default: context)\n\
         \x20 --critical-call NAME:ARG[:LABEL]\n\
         \x20                            treat argument ARG of external NAME as\n\
         \x20                            implicitly critical (like kill's pid);\n\
         \x20                            an optional LABEL from the declared\n\
         \x20                            policy clears flows at or below it\n\
         \x20 --implicit-flow MODE       control-dependence policy: strict\n\
         \x20                            (promote to errors), taint-only (track,\n\
         \x20                            don't report), report-separately\n\
         \x20                            (default; distinct control-only kind)\n\
         \x20 --recv NAME:SOCK:BUF       treat external NAME as a receive call\n\
         \x20                            (socket/buffer argument indices, §3.4.3)\n\
         \x20 --jobs N|auto, -j N        worker threads for the parallel phases\n\
         \x20                            (default: 1; reports are identical for any N)\n\
         \x20 --budget K=V[,K=V...]      resource budgets; exhaustion degrades the\n\
         \x20                            affected scope conservatively (exit 4).\n\
         \x20                            Keys: solver-steps, fixpoint-rounds,\n\
         \x20                            max-insts, deadline-ms\n\
         \x20 --inject SITE[:KEY][:KIND] inject a deterministic fault (testing);\n\
         \x20                            SITE: scc|solver|cache, KIND: panic|budget\n\
         \x20 --fault-seed SEED[:RATE]   seeded random fault plan (testing)\n\
         \x20 --format json|text         report format (default: text); json emits\n\
         \x20                            the stable `safeflow-report-v1` document\n\
         \x20                            (v2 when the source declares a label\n\
         \x20                            policy: adds per-finding label/flow_kind)\n\
         \x20 --metrics[=json]           append the run's observability metrics\n\
         \x20                            (counters/work/sched/dist/timings sections)\n\
         \x20 --dot                      emit Graphviz value-flow graphs for errors\n\
         \x20 --table1                   regenerate the paper's Table 1 on the corpus\n\
         \x20 --fig2                     analyze the paper's Figure 2 example\n\
         \n\
         EXIT CODES:\n\
         \x20 0 clean   1 warnings only   2 errors/violations or unusable input\n\
         \x20 3 internal error (contained panic)   4 budget exhausted\n"
    );
}

/// Prints `metrics` when `--metrics` asked for them.
fn print_metrics(metrics: &MetricsSnapshot, out: &OutputOpts) {
    match out.metrics {
        Some(MetricsOut::Text) => {
            out!("-- metrics --\n");
            out!("{}", metrics.render_text());
        }
        Some(MetricsOut::Json) => out!("{}\n", metrics.to_json().render()),
        None => {}
    }
}

/// Prints one DOT digraph per error of a report document (the paper's
/// value-flow graph triage aid, §4).
fn emit_dot(document: &Json) {
    let errors = document.get("report").map(|r| r.arr_member("errors")).unwrap_or_default();
    for (i, e) in errors.iter().enumerate() {
        let critical = e.str_member("critical");
        out!("// value-flow graph {} for critical `{critical}`\n", i + 1);
        out!("{}", safeflow::flowgraph::error_to_dot(e));
    }
}

/// Regenerates Table 1: one row per corpus system, paper numbers alongside
/// measured numbers.
fn run_table1(config: &AnalysisConfig, out: &OutputOpts) -> ExitCode {
    out!("Table 1: Applying SafeFlow to Control Systems (paper -> measured)\n\n");
    out!(
        "{:<16} {:>13} {:>12} {:>12} {:>12} {:>10} {:>10} {:>8}\n",
        "System",
        "LOC(total)",
        "LOC(core)",
        "SrcChanges",
        "Annot.lines",
        "Errors",
        "Warnings",
        "FPs"
    );
    let analyzer = Analyzer::new(config.clone());
    let mut ok = true;
    let mut sample = None;
    for system in systems() {
        match analyzer.analyze_source(system.core_file, system.core_source) {
            Ok(result) => {
                let r = &result.report;
                let confirmed = r
                    .errors
                    .iter()
                    .filter(|e| system.defects.iter().any(|d| d.critical == e.critical))
                    .count();
                let fps = r.errors.len() - confirmed;
                out!(
                    "{:<16} {:>6}>{:<6} {:>5}>{:<6} {:>5}>{:<6} {:>5}>{:<6} {:>4}>{:<5} {:>4}>{:<5} {:>3}>{:<4}\n",
                    system.name,
                    system.paper.loc_total,
                    system.total_loc(),
                    system.paper.loc_core,
                    system.core_loc(),
                    system.paper.source_changes,
                    system.source_change_lines(),
                    system.paper.annotation_lines,
                    system.annotation_lines(),
                    system.paper.errors,
                    confirmed,
                    system.paper.warnings,
                    r.warnings.len(),
                    system.paper.false_positives,
                    fps,
                );
                if confirmed != system.paper.errors
                    || r.warnings.len() != system.paper.warnings
                    || fps != system.paper.false_positives
                {
                    ok = false;
                }
                print_defects(&system, r);
                sample = Some(result.metrics);
            }
            Err(e) => {
                eprintln!("{}: analysis failed:\n{e}", system.name);
                ok = false;
            }
        }
    }
    out!("\nfinding counts {} the paper's Table 1\n", if ok { "MATCH" } else { "DO NOT MATCH" });
    // With --metrics: the registry is per-run, so this shows the last
    // corpus system analyzed — a representative sample for the demo.
    if let Some(metrics) = &sample {
        print_metrics(metrics, out);
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn print_defects(system: &System, report: &safeflow::AnalysisReport) {
    for defect in &system.defects {
        let found = report.errors.iter().any(|e| e.critical == defect.critical);
        out!("    defect {:<26} [{}]\n", defect.id, if found { "FOUND" } else { "MISSED" },);
    }
}
