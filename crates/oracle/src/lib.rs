//! # safeflow-oracle
//!
//! Differential + metamorphic testing of the optimized analysis engines.
//!
//! PRs 1–4 stacked three aggressive layers on top of the reference
//! semantics: parallel SCC scheduling, content-hashed
//! summary caching, and persistent-store incremental replay. This crate
//! keeps them honest. For every seed it generates an annotation-bearing,
//! (possibly) multi-translation-unit program
//! ([`safeflow_corpus::oracle_gen`]), analyzes it with the deliberately
//! naive **reference** configuration ([`AnalysisConfig::reference`]: summary
//! engine, single thread, fresh analyzer, no store), and then re-analyzes
//! it under each optimized configuration:
//!
//! * **parallel** — same config with `jobs = N` worker threads;
//! * **warm-cache** — the same analyzer run twice, comparing the
//!   cache-warm second run;
//! * **store-replay** — a persisted session replayed from its manifest;
//! * **incremental** — a store populated from an edited *variant* of the
//!   program, then the real program checked against it (dirty-region
//!   re-analysis over a seeded cache).
//!
//! A **divergence** is any difference in the `safeflow-report-v1` JSON
//! document after stripping the sections the observability contract
//! exempts ([`stripped`]): `metrics.sched`/`dist`/`timings_ns` always, plus
//! `metrics.work` and the top-level `cache` when the two sides differ in
//! cache state. Divergences are minimized by shrinking the generator
//! *shape* ([`minimize`]) and emitted as repro files.

#![warn(missing_docs)]

use safeflow::{AnalysisConfig, AnalysisSession, Analyzer, Json, SessionRun};
use safeflow_corpus::oracle_gen::{
    generate, generate_variant, shape_for_seed, shrink_candidates, OracleShape,
};
use safeflow_syntax::VirtualFs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// The optimized configurations the oracle checks against the reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OracleConfig {
    /// `jobs = N` worker threads, cold cache, no store.
    Parallel,
    /// The same analyzer run twice; the cache-warm second run is compared.
    WarmCache,
    /// A persisted session replayed from its whole-program manifest.
    StoreReplay,
    /// A store populated from an edited variant, then the real program
    /// checked against it (dirty-region re-analysis).
    Incremental,
}

/// All configurations, in the fixed order the oracle runs them.
pub const ALL_CONFIGS: [OracleConfig; 4] = [
    OracleConfig::Parallel,
    OracleConfig::WarmCache,
    OracleConfig::StoreReplay,
    OracleConfig::Incremental,
];

impl OracleConfig {
    /// Stable name used in reports and repro file names.
    pub fn name(self) -> &'static str {
        match self {
            OracleConfig::Parallel => "parallel",
            OracleConfig::WarmCache => "warm-cache",
            OracleConfig::StoreReplay => "store-replay",
            OracleConfig::Incremental => "incremental",
        }
    }

    /// Whether comparing this configuration against the reference crosses
    /// cache states (which widens the stripping contract).
    fn across_cache_states(self) -> bool {
        !matches!(self, OracleConfig::Parallel)
    }
}

/// Options for one oracle run.
#[derive(Debug, Clone)]
pub struct OracleOptions {
    /// First seed (inclusive).
    pub seed_lo: u64,
    /// Last seed (exclusive).
    pub seed_hi: u64,
    /// Worker threads for the parallel configuration.
    pub jobs: usize,
    /// Whether to minimize divergent programs before reporting.
    pub minimize: bool,
    /// Where to write repro files for divergences (`None` = don't write).
    pub repro_dir: Option<PathBuf>,
}

impl Default for OracleOptions {
    fn default() -> Self {
        OracleOptions { seed_lo: 0, seed_hi: 32, jobs: 4, minimize: false, repro_dir: None }
    }
}

/// One confirmed reference/optimized mismatch.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// The seed whose program diverged.
    pub seed: u64,
    /// The optimized configuration that disagreed with the reference.
    pub config: OracleConfig,
    /// The generator shape that produced the divergence (minimized when
    /// [`OracleOptions::minimize`] was set).
    pub shape: OracleShape,
    /// The reference document (stripped per the contract).
    pub expected: String,
    /// The optimized configuration's document (stripped identically).
    pub actual: String,
    /// Repro files written for this divergence (empty without a repro dir).
    pub repro_files: Vec<PathBuf>,
}

/// The outcome of an oracle run.
#[derive(Debug, Clone)]
pub struct OracleReport {
    /// The seed window that ran: `[lo, hi)`.
    pub seeds: (u64, u64),
    /// Total reference/optimized comparisons performed.
    pub comparisons: u64,
    /// Every confirmed divergence, in seed order.
    pub divergences: Vec<Divergence>,
}

impl OracleReport {
    /// Exit code under the CLI contract: 0 all configurations agree,
    /// 2 at least one divergence.
    pub fn exit_code(&self) -> u8 {
        if self.divergences.is_empty() {
            0
        } else {
            2
        }
    }

    /// Deterministic human-readable summary: no timings, no paths outside
    /// the repro directory, byte-identical across runs and `--jobs`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let configs: Vec<&str> = ALL_CONFIGS.iter().map(|c| c.name()).collect();
        out.push_str(&format!(
            "safeflow-oracle: seeds {}..{}, configurations: {}\n",
            self.seeds.0,
            self.seeds.1,
            configs.join(", ")
        ));
        for d in &self.divergences {
            out.push_str(&format!(
                "  DIVERGENCE seed {} config {}: optimized report differs from reference\n",
                d.seed,
                d.config.name()
            ));
            out.push_str(&format!("    shape: {:?}\n", d.shape));
            for f in &d.repro_files {
                out.push_str(&format!("    repro: {}\n", f.display()));
            }
        }
        out.push_str(&format!(
            "oracle summary: {} seed(s), {} comparison(s), {} divergence(s)\n",
            self.seeds.1.saturating_sub(self.seeds.0),
            self.comparisons,
            self.divergences.len()
        ));
        out
    }
}

/// Strips a `safeflow-report-v1` document down to the parts the
/// observability contract requires to be identical, and renders it.
///
/// `metrics.sched`, `metrics.dist`, and `metrics.timings_ns` are always
/// schedule-/machine-dependent and always stripped. When
/// `across_cache_states` is set (comparing a warm/replayed/incremental run
/// against a cold one), `metrics.work` and the top-level `cache` section
/// are stripped too — cache bookkeeping is *supposed* to differ there.
pub fn stripped(doc: &Json, across_cache_states: bool) -> String {
    let mut doc = doc.clone();
    if let Json::Obj(members) = &mut doc {
        if across_cache_states {
            members.retain(|(k, _)| k != "cache");
        }
        for (k, v) in members.iter_mut() {
            if k == "metrics" {
                if let Json::Obj(sections) = v {
                    sections.retain(|(k, _)| {
                        k != "sched"
                            && k != "dist"
                            && k != "timings_ns"
                            && (!across_cache_states || k != "work")
                    });
                }
            }
        }
    }
    doc.render()
}

fn vfs(files: &[(String, String)]) -> VirtualFs {
    let mut fs = VirtualFs::new();
    for (name, text) in files {
        fs.add(name.as_str(), text.clone());
    }
    fs
}

fn root_of(files: &[(String, String)]) -> &str {
    files.first().map(|(n, _)| n.as_str()).unwrap_or_default()
}

/// The reference document for `files`: fresh analyzer, reference config,
/// single cold run. Analysis errors render as a deterministic error
/// document so they too participate in the comparison.
fn reference_doc(files: &[(String, String)]) -> String {
    let analyzer = Analyzer::new(AnalysisConfig::reference());
    run_doc(&analyzer, files)
}

fn run_doc(analyzer: &Analyzer, files: &[(String, String)]) -> String {
    match analyzer.analyze_program(root_of(files), &vfs(files)) {
        Ok(result) => analyzer.report_json(&result).render(),
        Err(e) => format!("{{\"analysis_error\":\"{e}\"}}"),
    }
}

/// A scratch directory for one store-backed comparison. Unique per
/// process and per call, so neither parallel test binaries nor two oracle
/// runs in one process that visit the same seed share a store.
fn scratch_dir(seed: u64, tag: &str) -> PathBuf {
    static CALLS: AtomicU64 = AtomicU64::new(0);
    let call = CALLS.fetch_add(1, Ordering::Relaxed);
    let name = format!("safeflow-oracle-{}-{call}-{seed}-{tag}", std::process::id());
    std::env::temp_dir().join(name)
}

/// Runs one optimized configuration over `shape` and returns the stripped
/// (reference, optimized) documents.
fn compare_config(
    shape: &OracleShape,
    config: OracleConfig,
    seed: u64,
    jobs: usize,
) -> (String, String) {
    let files = generate(shape);
    let reference = reference_doc(&files);
    let reference = stripped_str(&reference, config.across_cache_states());
    let actual = match config {
        OracleConfig::Parallel => {
            let analyzer = Analyzer::new(AnalysisConfig::reference().with_jobs(jobs.max(2)));
            run_doc(&analyzer, &files)
        }
        OracleConfig::WarmCache => {
            let analyzer = Analyzer::new(AnalysisConfig::reference());
            let _ = analyzer.analyze_program(root_of(&files), &vfs(&files));
            run_doc(&analyzer, &files)
        }
        OracleConfig::StoreReplay => {
            let dir = scratch_dir(seed, "replay");
            let doc = store_replay_doc(&files, &dir);
            let _ = std::fs::remove_dir_all(&dir);
            doc
        }
        OracleConfig::Incremental => {
            let dir = scratch_dir(seed, "incr");
            let doc = incremental_doc(shape, &files, &dir);
            let _ = std::fs::remove_dir_all(&dir);
            doc
        }
    };
    let actual = stripped_str(&actual, config.across_cache_states());
    (reference, actual)
}

/// Parses-and-strips when the document is JSON; passes error strings
/// through untouched.
fn stripped_str(doc: &str, across_cache_states: bool) -> String {
    match Json::parse(doc) {
        Ok(json) => stripped(&json, across_cache_states),
        Err(_) => doc.to_string(),
    }
}

fn store_replay_doc(files: &[(String, String)], dir: &Path) -> String {
    let _ = std::fs::remove_dir_all(dir);
    let fs = vfs(files);
    let root = root_of(files);
    let cold = match AnalysisSession::with_store(AnalysisConfig::reference(), dir) {
        Ok(mut s) => s.check(root, &fs),
        Err(e) => return format!("{{\"analysis_error\":\"{e}\"}}"),
    };
    if let Err(e) = cold {
        return format!("{{\"analysis_error\":\"{e}\"}}");
    }
    match AnalysisSession::with_store(AnalysisConfig::reference(), dir) {
        Ok(mut warm) => match warm.check(root, &fs) {
            Ok(outcome) => {
                debug_assert_eq!(outcome.run, SessionRun::Replayed);
                outcome.report_json.render()
            }
            Err(e) => format!("{{\"analysis_error\":\"{e}\"}}"),
        },
        Err(e) => format!("{{\"analysis_error\":\"{e}\"}}"),
    }
}

fn incremental_doc(shape: &OracleShape, files: &[(String, String)], dir: &Path) -> String {
    let _ = std::fs::remove_dir_all(dir);
    let variant = generate_variant(shape);
    let root = root_of(files);
    match AnalysisSession::with_store(AnalysisConfig::reference(), dir) {
        Ok(mut s) => {
            let _ = s.check(root_of(&variant), &vfs(&variant));
        }
        Err(e) => return format!("{{\"analysis_error\":\"{e}\"}}"),
    }
    // A brand-new session over the same store: the real program's dirty
    // region (the edited helper unit and its transitive callers)
    // recomputes over the store-seeded cache.
    match AnalysisSession::with_store(AnalysisConfig::reference(), dir) {
        Ok(mut s) => match s.check(root, &vfs(files)) {
            Ok(outcome) => outcome.report_json.render(),
            Err(e) => format!("{{\"analysis_error\":\"{e}\"}}"),
        },
        Err(e) => format!("{{\"analysis_error\":\"{e}\"}}"),
    }
}

/// Greedily shrinks `shape` while `still_diverges` holds, one
/// [`shrink_candidates`] step at a time. Deterministic: candidates are
/// tried in their fixed order and the first still-diverging one is taken.
pub fn minimize(
    shape: &OracleShape,
    mut still_diverges: impl FnMut(&OracleShape) -> bool,
) -> OracleShape {
    let mut cur = shape.clone();
    loop {
        let mut advanced = false;
        for cand in shrink_candidates(&cur) {
            if still_diverges(&cand) {
                cur = cand;
                advanced = true;
                break;
            }
        }
        if !advanced {
            return cur;
        }
    }
}

/// Flattens a (possibly multi-TU) generated program into one `.c` file by
/// splicing generated `#include`s in place — the form repros are checked
/// in as.
pub fn flatten(files: &[(String, String)]) -> String {
    let (_, root) = &files[0];
    let mut out = String::new();
    for line in root.lines() {
        let spliced = files[1..].iter().find_map(|(name, text)| {
            let t = line.trim();
            (t == format!("#include \"{name}\"")).then_some(text.as_str())
        });
        match spliced {
            Some(text) => {
                out.push_str(text);
                if !text.ends_with('\n') {
                    out.push('\n');
                }
            }
            None => {
                out.push_str(line);
                out.push('\n');
            }
        }
    }
    out
}

/// Writes the repro artifacts for a divergence: the flattened program and
/// both stripped documents. Returns the written paths (program first).
fn write_repro(
    dir: &Path,
    seed: u64,
    config: OracleConfig,
    shape: &OracleShape,
    expected: &str,
    actual: &str,
) -> std::io::Result<Vec<PathBuf>> {
    std::fs::create_dir_all(dir)?;
    let stem = format!("seed-{seed}-{}", config.name());
    let program = dir.join(format!("{stem}.c"));
    std::fs::write(&program, flatten(&generate(shape)))?;
    let exp = dir.join(format!("{stem}.expected.json"));
    std::fs::write(&exp, expected)?;
    let act = dir.join(format!("{stem}.actual.json"));
    std::fs::write(&act, actual)?;
    Ok(vec![program, exp, act])
}

/// Runs the oracle over `opts.seed_lo..opts.seed_hi`.
///
/// For each seed: generate the program, compute the reference document,
/// and compare every configuration in [`ALL_CONFIGS`] against it. With
/// `opts.minimize`, each divergence is shrunk before being reported (and
/// written to `opts.repro_dir` when set).
pub fn run(opts: &OracleOptions) -> OracleReport {
    let mut divergences = Vec::new();
    let mut comparisons = 0u64;
    for seed in opts.seed_lo..opts.seed_hi {
        let shape = shape_for_seed(seed);
        for &config in &ALL_CONFIGS {
            comparisons += 1;
            let (expected, actual) = compare_config(&shape, config, seed, opts.jobs);
            if expected == actual {
                continue;
            }
            let shape = if opts.minimize {
                minimize(&shape, |cand| {
                    let (e, a) = compare_config(cand, config, seed, opts.jobs);
                    e != a
                })
            } else {
                shape.clone()
            };
            // Re-derive the documents for the reported shape (minimization
            // may have changed them).
            let (expected, actual) = if opts.minimize {
                compare_config(&shape, config, seed, opts.jobs)
            } else {
                (expected, actual)
            };
            let repro_files = match &opts.repro_dir {
                Some(dir) => {
                    write_repro(dir, seed, config, &shape, &expected, &actual).unwrap_or_default()
                }
                None => Vec::new(),
            };
            divergences.push(Divergence { seed, config, shape, expected, actual, repro_files });
        }
    }
    OracleReport { seeds: (opts.seed_lo, opts.seed_hi), comparisons, divergences }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_seed_window_has_no_divergences() {
        let report = run(&OracleOptions { seed_lo: 0, seed_hi: 6, ..Default::default() });
        assert_eq!(report.comparisons, 24);
        assert!(
            report.divergences.is_empty(),
            "optimized engines diverged from reference:\n{}",
            report.render()
        );
        assert_eq!(report.exit_code(), 0);
    }

    #[test]
    fn render_is_deterministic_across_runs_and_jobs() {
        let a = run(&OracleOptions { seed_lo: 3, seed_hi: 5, jobs: 2, ..Default::default() });
        let b = run(&OracleOptions { seed_lo: 3, seed_hi: 5, jobs: 8, ..Default::default() });
        assert_eq!(a.render(), b.render());
    }

    #[test]
    fn minimize_shrinks_to_the_smallest_still_failing_shape() {
        // A synthetic divergence predicate: "diverges" iff the program has
        // at least 2 helper levels and a kill call. The minimizer must
        // strip everything else.
        let mut start = shape_for_seed(11);
        start.depth = start.depth.max(3);
        start.kill_call = true;
        let min = minimize(&start, |s| s.depth >= 2 && s.kill_call);
        assert_eq!(min.depth, 2);
        assert!(min.kill_call);
        assert_eq!(min.units, 1);
        assert_eq!(min.monitors.len(), 1);
        assert_eq!(min.regions, 1);
        assert_eq!(min.branches, 0);
        assert!(!min.direct_read);
    }

    #[test]
    fn flatten_splices_includes_in_place() {
        let mut shape = shape_for_seed(2);
        shape.units = 3;
        let files = generate(&shape);
        assert!(files.len() == 3);
        let flat = flatten(&files);
        assert!(!flat.contains("#include"));
        assert!(flat.contains("helper0"));
        assert!(flat.contains("int main()"));
        // The flattened program must analyze to the same stripped report
        // as the multi-TU original.
        let multi = reference_doc(&files);
        let single = reference_doc(&[("flat.c".to_string(), flat)]);
        // Spans shift between layouts, so compare only the finding counts
        // via exit codes embedded in the documents.
        let exit = |doc: &str| {
            Json::parse(doc).ok().and_then(|j| j.get("exit_code").cloned().map(|e| e.render()))
        };
        assert_eq!(exit(&multi), exit(&single));
    }

    #[test]
    fn stripped_removes_contract_sections() {
        let mut doc = Json::obj();
        doc.set("schema", "safeflow-report-v1");
        doc.set("cache", Json::obj());
        let mut metrics = Json::obj();
        metrics.set("counters", Json::obj());
        metrics.set("sched", Json::obj());
        metrics.set("work", Json::obj());
        metrics.set("timings_ns", Json::obj());
        doc.set("metrics", metrics);
        let same_state = stripped(&doc, false);
        assert!(!same_state.contains("sched"));
        assert!(!same_state.contains("timings_ns"));
        assert!(same_state.contains("cache"));
        assert!(same_state.contains("work"));
        let across = stripped(&doc, true);
        assert!(!across.contains("cache"));
        assert!(!across.contains("work"));
        assert!(across.contains("counters"));
    }
}
