//! Seeded end-to-end and per-layer benchmark of the SafeFlow analyzer.
//!
//! Each check is one `safeflow check` as a user runs it: open a session
//! (over the summary store, when the workload keeps one), check the
//! program, drop the session. Run from the repository root:
//!
//! ```text
//! cargo run --release --manifest-path sfbench/Cargo.toml -- \
//!     --workload cold --seed 1 --seconds 15 --trace 0
//! ```
//!
//! An iteration does the same work every time: one check, one check of
//! every program (`findings`), or one edit-and-check per package
//! (`warm_edit`). `--trace 0` reports the end-to-end metrics: the median
//! over the iterations of the mean time of a check, peak resident memory,
//! and the median time of a set-up. Both times are CPU time calibrated
//! against a fixed kernel run beside the measured work, and scaled back to
//! ms on the calibration host: on a shared host the neighbours' load comes
//! in phases of seconds to minutes that move a run's raw timings by up to
//! 40%, and the calibrated ones by a few percent (see [`timed_kernel`]).
//!
//! `--trace 1` runs the same checks and reports a per-layer breakdown
//! instead: wall-clock spans recorded here around the calls into the store,
//! the session and the frontend, plus the phase timings and work counters
//! the analyzer puts in every metrics snapshot.
//!
//! Workloads, all on the summary engine with one worker thread:
//!
//! * `cold` — each check starts from an empty store: frontend, the three
//!   analysis phases and the store save, over a 146-unit monorepo corpus.
//! * `warm_noop` — the store already holds the unchanged corpus, so the
//!   whole-program manifest replays and nothing is parsed.
//! * `warm_edit` — before each check one comment line is added at the top
//!   of one unit: incremental re-analysis over the store-seeded cache. An
//!   edit low in the package chain dirties every package above it, so an
//!   iteration edits one unit in each package, bottom package first.
//! * `findings` — the paper's three Table 1 systems and seeded oracle
//!   programs, checked without a store: the restriction, solver and
//!   finding paths the clean monorepo never reaches.
//!
//! The seed picks the monorepo variant (which `CFG_FEATURE_n` macros are
//! on), which unit of each package is edited and the oracle programs; the
//! work per iteration stays about the same for every seed. Every check is compared with
//! a cold storeless check of the same input, the monorepo must check clean,
//! and the Table 1 systems must give the paper's counts. How a check gets
//! its answer (replayed, cached or recomputed) is not checked, so a change
//! to the incremental machinery shows in the latency, not as a failure.
//!
//! The last line on stdout is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`.

use safeflow::{AnalysisConfig, AnalysisSession, Engine, SessionOutcome, SessionRun};
use safeflow_corpus::monorepo::{generate_monorepo, MonorepoParams};
use safeflow_corpus::{oracle_gen, systems, System};
use safeflow_syntax::VirtualFs;
use safeflow_util::prop::Gen;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

const USAGE: &str =
    "usage: sfbench --workload cold|warm_noop|warm_edit|findings --seed N --seconds S --trace 0|1";

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Seeded oracle programs in each `findings` sweep, beside the three
/// Table 1 systems. Their sizes vary widely, so it takes this many for every
/// seed's sweep to cost about the same.
const ORACLE_PROGRAMS: usize = 96;
/// Fewest iterations a run makes, however short `--seconds` is.
const MIN_ITERATIONS: u64 = 5;
/// Scratch directory for the stores, relative to where the benchmark runs;
/// removed when the run ends.
const SCRATCH: &str = ".sfbench";

/// Analyzer phases timed inside every analysis, as (layer, `timings_ns`
/// key); together they make up `Analyzer::analyze_module`.
const PHASES: [(&str, &str); 7] = [
    ("regions_ms", "phase.regions"),
    ("policy_ms", "phase.policy"),
    ("shmptr_ms", "phase.shmptr"),
    ("callgraph_ms", "phase.callgraph"),
    ("restrict_ms", "phase.restrict"),
    ("points_to_ms", "phase.points_to"),
    ("value_flow_ms", "phase.value_flow"),
];

/// Work counts, as (layer, metrics key).
const COUNTS: [(&str, &str); 9] = [
    ("sccs_hashed", "engine.sccs_hashed"),
    ("summary_cache_hits", "summary.cache_hits"),
    ("summary_cache_misses", "summary.cache_misses"),
    ("summarize_calls", "summary.summarize_calls"),
    ("restrict_functions_checked", "restrict.functions_checked"),
    ("solver_calls", "restrict.solver_calls"),
    ("solver_steps", "solver.steps"),
    ("store_sccs_invalidated", "store.sccs_invalidated"),
    ("manifest_hits", "store.manifest_hits"),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Cold,
    WarmNoop,
    WarmEdit,
    Findings,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        Some(match name {
            "cold" => Workload::Cold,
            "warm_noop" => Workload::WarmNoop,
            "warm_edit" => Workload::WarmEdit,
            "findings" => Workload::Findings,
            _ => return None,
        })
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<u64>().ok().filter(|s| (1..=600).contains(s));
                seconds = Some(s.ok_or_else(bad)?);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// What `safeflow check` runs with by default, on one worker thread.
fn config() -> AnalysisConfig {
    AnalysisConfig::builder().engine(Engine::Summary).jobs(1).build_config()
}

fn cold_check(root: &str, fs: &VirtualFs) -> Result<SessionOutcome, String> {
    AnalysisSession::new(config()).check(root, fs).map_err(|e| e.to_string())
}

/// The parts of a check's outcome that must not depend on the store or
/// cache state: exit code, rendered report and `Counter`-class metrics.
struct Expected {
    exit_code: u8,
    rendered: String,
    counters: BTreeMap<String, u64>,
}

impl Expected {
    fn of(outcome: &SessionOutcome) -> Expected {
        Expected {
            exit_code: outcome.exit_code,
            rendered: outcome.rendered.clone(),
            counters: outcome.metrics.counters.clone(),
        }
    }

    fn matches(&self, outcome: &SessionOutcome) -> bool {
        self.exit_code == outcome.exit_code
            && self.rendered == outcome.rendered
            && self.counters == outcome.metrics.counters
    }
}

/// One program to check, with the outcome a correct check reproduces.
struct Program {
    name: String,
    root: String,
    fs: VirtualFs,
    expected: Expected,
}

impl Program {
    /// Loads `files` (root first) and checks them once, cold and without a
    /// store, for the reference outcome; for a Table 1 system that outcome
    /// must also match the paper's counts.
    fn new(
        name: String,
        files: Vec<(String, String)>,
        system: Option<&System>,
    ) -> Result<Program, String> {
        let root =
            files.first().map(|(n, _)| n.clone()).ok_or_else(|| format!("{name}: no files"))?;
        let mut fs = VirtualFs::new();
        for (file, text) in files {
            fs.add(file, text);
        }
        let outcome = cold_check(&root, &fs).map_err(|e| format!("{name}: {e}"))?;
        if let Some(system) = system {
            table1_counts_match(system, &outcome)?;
        }
        Ok(Program { name, root, fs, expected: Expected::of(&outcome) })
    }
}

/// The paper's Table 1 row for `system`: warnings, confirmed errors (those
/// naming a seeded defect) and false positives (the other errors).
fn table1_counts_match(system: &System, outcome: &SessionOutcome) -> Result<(), String> {
    let report = &outcome.result.as_ref().ok_or("a cold check must analyze")?.report;
    let confirmed = report
        .errors
        .iter()
        .filter(|e| system.defects.iter().any(|d| d.critical == e.critical))
        .count();
    let got = (report.warnings.len(), confirmed, report.errors.len() - confirmed);
    let want = (system.paper.warnings, system.paper.errors, system.paper.false_positives);
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "{}: (warnings, errors, false positives) = {got:?}, Table 1 says {want:?}",
            system.name
        ))
    }
}

/// The bench preset's 146 translation units with shorter units, so a cold
/// check takes about a tenth of a second.
fn monorepo_params() -> MonorepoParams {
    MonorepoParams { stages: 3, branches: 6, ..MonorepoParams::bench() }
}

/// The monorepo with the seed choosing which `CFG_FEATURE_n` config macros
/// are on. Each selects between `#if`/`#else` branches of about the same
/// size, so every variant costs about the same to check.
fn monorepo_files(gen: &mut Gen) -> Result<Vec<(String, String)>, String> {
    let params = monorepo_params();
    let mut files = generate_monorepo(params);
    let config_h = files
        .iter_mut()
        .find(|(name, _)| name == "config.h")
        .map(|(_, text)| text)
        .ok_or("the monorepo corpus has no config.h")?;
    for i in 0..params.configs {
        let generated = format!("#define CFG_FEATURE_{i} {}\n", 1 - i % 2);
        let chosen = format!("#define CFG_FEATURE_{i} {}\n", u8::from(gen.bool()));
        *config_h = config_h.replace(&generated, &chosen);
    }
    Ok(files)
}

/// The three Table 1 systems plus [`ORACLE_PROGRAMS`] seeded oracle
/// programs (unmonitored reads, `kill` pids, labels, config macros, one to
/// three units).
fn findings_programs(gen: &mut Gen) -> Result<Vec<Program>, String> {
    let mut programs = Vec::new();
    for system in systems() {
        let files = vec![(system.core_file.to_string(), system.core_source.to_string())];
        programs.push(Program::new(system.name.to_string(), files, Some(&system))?);
    }
    for _ in 0..ORACLE_PROGRAMS {
        let seed = gen.u64();
        let files = oracle_gen::generate_for_seed(seed);
        programs.push(Program::new(format!("oracle program {seed}"), files, None)?);
    }
    Ok(programs)
}

/// Everything a run measures with, built from the seed by [`setup`].
struct State {
    programs: Vec<Program>,
    /// The store directory, for the workloads that keep one.
    store: Option<PathBuf>,
    /// The seed's stream, continued for the per-iteration edits.
    gen: Gen,
}

/// Builds the workload's inputs and their reference outcomes, and for the
/// warm workloads fills the store in `dir` with one check of the corpus.
fn setup(workload: Workload, seed: u64, dir: &Path) -> Result<State, String> {
    let mut gen = Gen::new(seed);
    if workload == Workload::Findings {
        let programs = findings_programs(&mut gen)?;
        return Ok(State { programs, store: None, gen });
    }
    let program = Program::new("monorepo".to_string(), monorepo_files(&mut gen)?, None)?;
    // Every region read in the corpus sits under a monitor.
    if program.expected.exit_code != 0 {
        return Err("the monorepo corpus must check clean".to_string());
    }
    if workload != Workload::Cold {
        verify(&program, &timed_check(&program, Some(dir))?.outcome)?;
    }
    Ok(State { programs: vec![program], store: Some(dir.to_path_buf()), gen })
}

/// Adds a comment line at the top of one seed-chosen unit of `package`.
/// Every span in that file shifts, so its functions and their callers hash
/// anew: the one-line edit an incremental re-check is for.
fn edit_one_unit(program: &mut Program, gen: &mut Gen, package: usize, n: u64) {
    let prefix = format!("pkg{package}/unit");
    let units: Vec<String> = program
        .fs
        .names()
        .into_iter()
        .filter(|name| name.starts_with(&prefix))
        .map(str::to_string)
        .collect();
    let unit = &units[gen.usize(0, units.len())];
    let edited = format!("/* edit {n} */\n{}", program.fs.get(unit).unwrap_or_default());
    program.fs.add(unit.as_str(), edited);
}

/// One timed check.
struct Timed {
    outcome: SessionOutcome,
    /// Opening the store; zero without one.
    open_ns: u64,
    /// `AnalysisSession::check` and dropping the session.
    check_ns: u64,
    /// CPU time of the whole check, session open to drop.
    cpu_ns: u64,
}

/// One `safeflow check`: open a session (over the store in `dir`, when
/// given), check the program, drop the session.
fn timed_check(program: &Program, dir: Option<&Path>) -> Result<Timed, String> {
    let cpu0 = cpu_now();
    let t0 = Instant::now();
    let mut session = match dir {
        Some(dir) => AnalysisSession::with_store(config(), dir).map_err(|e| e.to_string())?,
        None => AnalysisSession::new(config()),
    };
    let t1 = Instant::now();
    let outcome =
        session.check(&program.root, &program.fs).map_err(|e| format!("{}: {e}", program.name))?;
    drop(session);
    let t2 = Instant::now();
    let cpu_ns = nanos(cpu_now() - cpu0);
    Ok(Timed { outcome, open_ns: nanos(t1 - t0), check_ns: nanos(t2 - t1), cpu_ns })
}

/// CPU time this process has used so far (`CLOCK_PROCESS_CPUTIME_ID`).
///
/// The end-to-end timings read this clock: on a shared host a check's wall
/// time also counts the time it waits for a core the neighbours hold, while
/// its CPU time is the analyzer's own work, whichever thread does it. With
/// one worker thread the two differ by that wait and the store's file I/O.
/// The neighbours still slow the CPU time itself; [`timed_kernel`] takes
/// that out.
fn cpu_now() -> Duration {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec` for the call, and
    // the C library std links on Linux provides `clock_gettime`.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Compares one check with the program's reference outcome.
fn verify(program: &Program, outcome: &SessionOutcome) -> Result<(), String> {
    if !program.expected.matches(outcome) {
        return Err(format!("{}: report differs from a cold storeless check", program.name));
    }
    Ok(())
}

/// Layer name to value, summed over the checks of one iteration.
type Layers = BTreeMap<&'static str, f64>;

fn add(layers: &mut Layers, layer: &'static str, value: f64) {
    *layers.entry(layer).or_insert(0.0) += value;
}

/// One measured iteration. Returns the mean CPU time of a check and of the
/// calibration kernel run before and after the checks, both in ms, and,
/// when traced, the per-layer breakdown.
fn iteration(
    workload: Workload,
    state: &mut State,
    n: u64,
    trace: bool,
) -> Result<(f64, f64, Layers), String> {
    if workload == Workload::Cold {
        if let Some(dir) = state.store.as_deref().filter(|dir| dir.exists()) {
            std::fs::remove_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
    }
    let rounds = if workload == Workload::WarmEdit { monorepo_params().packages } else { 1 };
    let mut layers = Layers::new();
    let (mut total_ms, mut checks) = (0.0, 0);
    let kernel_before = timed_kernel();
    for package in 0..rounds {
        if workload == Workload::WarmEdit {
            edit_one_unit(&mut state.programs[0], &mut state.gen, package, n);
        }
        for program in &state.programs {
            let timed = timed_check(program, state.store.as_deref())?;
            total_ms += ms(timed.cpu_ns);
            checks += 1;
            verify(program, &timed.outcome)?;
            if trace {
                trace_layers(program, &timed, &mut layers);
            }
        }
    }
    if trace {
        let hits = layers.get("summary_cache_hits").copied().unwrap_or(0.0);
        let probes = hits + layers.get("summary_cache_misses").copied().unwrap_or(0.0);
        let pct = if probes > 0.0 { 100.0 * hits / probes } else { 0.0 };
        layers.insert("summary_cache_hit_pct", pct);
    }
    let kernel_ms = (kernel_before + timed_kernel()) / 2.0;
    Ok((total_ms / f64::from(checks), kernel_ms, layers))
}

/// Keys the calibration kernel inserts: about 1.5 MB of map nodes and small
/// allocations, past the per-core caches as the analyzer's data is.
const KERNEL_KEYS: u64 = 16_000;

/// CPU time of [`timed_kernel`] on the host the benchmark was calibrated
/// on (a 2-vCPU x86-64 VM), in ms: the scale of the end-to-end timings.
const KERNEL_REF_MS: f64 = 3.8;

/// The calibration kernel: a fixed piece of CPU work shaped like the
/// analyzer's (ordered-map inserts, small allocations, string formatting
/// and a sort). Returns its CPU time in ms.
///
/// On a shared host the neighbours' load comes in phases of seconds to
/// minutes that slow every instruction, CPU time included, by up to 40%:
/// the cache and memory bandwidth are shared, not only the cores. The
/// kernel, run right before and after each iteration, slows with them, so
/// a check's CPU time over the kernel's is the analyzer's cost in units
/// that hold still; times [`KERNEL_REF_MS`] it reads as ms again.
fn timed_kernel() -> f64 {
    let cpu0 = cpu_now();
    let keys = black_box(KERNEL_KEYS);
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut map = BTreeMap::new();
    for i in 0..keys {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        map.insert(x % (keys * 4), vec![i as u32; 4]);
    }
    let mut names: Vec<String> = map.keys().map(|k| format!("{k:x}")).collect();
    names.sort();
    let mut acc = names.iter().map(|k| k.len() as u64).sum::<u64>();
    for (k, v) in &map {
        acc = acc.wrapping_add(k ^ u64::from(v[0]));
    }
    black_box(acc);
    ms(nanos(cpu_now() - cpu0))
}

/// The per-layer breakdown of one check.
fn trace_layers(program: &Program, timed: &Timed, layers: &mut Layers) {
    let metrics = &timed.outcome.metrics;
    let analyzed = timed.outcome.run == SessionRun::Analyzed;
    add(layers, "store_open_ms", ms(timed.open_ns));
    add(layers, "check_ms", ms(timed.check_ns));
    let mut attributed = 0.0;
    for (layer, ns) in frontend_spans(program, analyzed) {
        add(layers, layer, ms(ns));
        attributed += ms(ns);
    }
    let timing = |key: &str| ms(metrics.timings_ns.get(key).copied().unwrap_or(0));
    for (layer, key) in PHASES {
        add(layers, layer, timing(key));
        attributed += timing(key);
    }
    // Part of `value_flow_ms`, so not attributed a second time.
    add(layers, "scc_hash_ms", timing("engine.scc_hash_ns"));
    // Manifest hashing, replay, report composition and the store save.
    add(layers, "session_other_ms", (ms(timed.check_ns) - attributed).max(0.0));
    for (layer, key) in COUNTS {
        // A replayed check re-emits the cold run's `counters` verbatim
        // without doing that work, so only the `work` section counts there.
        let counted = metrics.counters.get(key).filter(|_| analyzed);
        add(layers, layer, metrics.work.get(key).or(counted).copied().unwrap_or(0) as f64);
    }
}

/// Parse, lower and SSA of `program` as (layer, ns). The session does not
/// time its frontend, so a check that analyzed gets the same calls on the
/// same input here, after and outside its own span; a replayed check parsed
/// nothing.
fn frontend_spans(program: &Program, analyzed: bool) -> [(&'static str, u64); 3] {
    if !analyzed {
        return [("parse_ms", 0), ("lower_ms", 0), ("ssa_ms", 0)];
    }
    let t0 = Instant::now();
    let parsed = safeflow_syntax::parse_program_jobs(&program.root, &program.fs, 1);
    let t1 = Instant::now();
    let mut diags = parsed.diags;
    let mut module = safeflow_ir::lower::lower(&parsed.unit, &mut diags);
    let t2 = Instant::now();
    safeflow_ir::ssa::promote_module(&mut module);
    let t3 = Instant::now();
    black_box(&module);
    [("parse_ms", nanos(t1 - t0)), ("lower_ms", nanos(t2 - t1)), ("ssa_ms", nanos(t3 - t2))]
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Linearly interpolated `q`-quantile of `values`; 0 when empty.
fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let Some(last) = sorted.len().checked_sub(1) else { return 0.0 };
    let pos = q * last as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

fn unit_of(layer: &str) -> &'static str {
    if layer.ends_with("_ms") {
        "ms"
    } else if layer.ends_with("_pct") {
        "%"
    } else {
        "count"
    }
}

fn run(args: &Args, scratch: &Path) -> Result<(), String> {
    // Set-up CPU time in seconds per ms of kernel CPU time, the kernel run
    // before and after each set-up.
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut state = None;
    for k in 0..SETUPS {
        let before = timed_kernel();
        let cpu0 = cpu_now();
        state = Some(setup(args.workload, args.seed, &scratch.join(format!("store{k}")))?);
        let cpu = (cpu_now() - cpu0).as_secs_f64();
        setup_s.push(cpu / ((before + timed_kernel()) / 2.0));
    }
    let mut state = state.ok_or("no set-up ran")?;

    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let (mut checks, mut kernels, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    let mut traced = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut failures = Vec::new();
    while attempted < MIN_ITERATIONS || Instant::now() < deadline {
        attempted += 1;
        match iteration(args.workload, &mut state, attempted, args.trace) {
            Ok((check, kernel, layers)) => {
                checks.push(check);
                kernels.push(kernel);
                ratios.push(check / kernel);
                traced.push(layers);
            }
            Err(e) => {
                failed += 1;
                failures.push(e);
            }
        }
    }
    if args.workload == Workload::WarmEdit {
        // Every check above was compared with the unedited corpus's
        // reference; comment lines move no finding, so a cold check of the
        // edited corpus must still match it.
        let program = &state.programs[0];
        if !program.expected.matches(&cold_check(&program.root, &program.fs)?) {
            failures.push("the edited corpus no longer matches its reference".to_string());
        }
    }
    for failure in failures.iter().take(5) {
        eprintln!("sfbench: {failure}");
    }

    let metrics: Vec<(String, f64, &str)> = if args.trace {
        let layers: Vec<&str> =
            traced.first().map(|l| l.keys().copied().collect()).unwrap_or_default();
        layers
            .into_iter()
            .map(|layer| {
                let values: Vec<f64> =
                    traced.iter().map(|l| l.get(layer).copied().unwrap_or(0.0)).collect();
                (layer.to_string(), median(&values), unit_of(layer))
            })
            .collect()
    } else {
        vec![
            ("latency_ms".to_string(), median(&ratios) * KERNEL_REF_MS, "ms"),
            ("peak_rss_mib".to_string(), peak_rss_mib()?, "MiB"),
            ("setup_s".to_string(), median(&setup_s) * KERNEL_REF_MS, "s"),
        ]
    };
    eprintln!(
        "sfbench: {:?} seed {}: {attempted} iterations, {failed} failed; median check CPU {:.3} ms, kernel CPU {:.3} ms",
        args.workload,
        args.seed,
        median(&checks),
        median(&kernels),
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failures.is_empty(),
        body.join(", ")
    );
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("sfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let scratch = Path::new(SCRATCH).join(std::process::id().to_string());
    let result = run(&args, &scratch);
    let _ = std::fs::remove_dir_all(&scratch);
    // Succeeds only once no other run is using the directory.
    let _ = std::fs::remove_dir(SCRATCH);
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("sfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
