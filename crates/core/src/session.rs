//! Multi-translation-unit analysis sessions with incremental re-analysis.
//!
//! An [`AnalysisSession`] wraps an [`Analyzer`] and (optionally) a
//! persistent [`crate::store`] directory, and drives whole-program checks
//! over a set of input files:
//!
//! 1. **Exact replay** — when every input file, the root, and the
//!    configuration hash to a stored manifest, the session replays the
//!    stored report without parsing anything (`run == Replayed`, zero SCCs
//!    re-analyzed).
//! 2. **Incremental re-analysis** — otherwise the in-memory summary cache
//!    is seeded from the store's per-SCC table and the full pipeline runs;
//!    unchanged SCCs hit the cache, the dirty region (edited SCCs plus
//!    their transitive dependents in the call graph) recomputes, and the
//!    re-linked whole-program report is saved back.
//!
//! Replayed and analyzed runs produce byte-identical reports (stripped per
//! the observability contract): the manifest stores the cold run's
//! rendered output and `Counter`-class metrics verbatim, and store
//! bookkeeping lands in `Work`-class metrics, which the warm/cold
//! comparison strips by definition. Degraded runs (exit code ≥ 3) are
//! never persisted, and an armed fault plan disables the store entirely.
//!
//! An analyzed check also times its report rendering (`report.render_ns`)
//! and its store save (`store.save_ns`) next to the analyzer's phase
//! timings, all in the volatile `timings_ns` section. Every check of a
//! session with a store, analyzed or replayed, carries the time the session
//! took to open and decode that store (`store.load_ns`).

use crate::store::{config_hash, manifest_key, ReplayEntry, SummaryStore};
use crate::{AnalysisConfig, AnalysisError, AnalysisResult, Analyzer, Json, MetricsSnapshot};
use safeflow_syntax::VirtualFs;
use std::path::Path;
use std::time::Instant;

/// How a [`SessionOutcome`] was produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionRun {
    /// The full pipeline ran (possibly with summary-cache hits).
    Analyzed,
    /// The whole-program manifest matched; the stored report was replayed
    /// without parsing or analyzing anything.
    Replayed,
}

/// The result of one [`AnalysisSession::check`] call.
#[derive(Debug)]
pub struct SessionOutcome {
    /// Whether the run analyzed or replayed.
    pub run: SessionRun,
    /// The report's exit code (degradation contract, 0–4).
    pub exit_code: u8,
    /// The rendered human-readable report.
    pub rendered: String,
    /// The full report document (`safeflow-report-v1` under the default
    /// two-point policy, `safeflow-report-v2` when labels are declared).
    pub report_json: Json,
    /// The run's metrics (including `store.*` bookkeeping in the `work`
    /// section when a store is attached).
    pub metrics: MetricsSnapshot,
    /// The underlying analysis result — `None` for replayed runs, which
    /// never build a module.
    pub result: Option<AnalysisResult>,
}

/// A multi-file analysis session: an analyzer plus an optional persistent
/// summary store. See the module docs for the incremental protocol.
#[derive(Debug)]
pub struct AnalysisSession {
    analyzer: Analyzer,
    store: Option<SummaryStore>,
    /// Opening and decoding the store, and seeding the cache from it.
    store_load_ns: Option<u64>,
    replay_enabled: bool,
    strict: bool,
}

impl AnalysisSession {
    /// A session without persistence: every check is a cold run (modulo
    /// the in-memory summary cache, which persists across checks).
    pub fn new(config: AnalysisConfig) -> AnalysisSession {
        AnalysisSession {
            analyzer: Analyzer::new(config),
            store: None,
            store_load_ns: None,
            replay_enabled: true,
            strict: false,
        }
    }

    /// A session persisting to `dir` (created if missing). An existing
    /// store file that fails validation is ignored — the first check
    /// degrades to a cold run and rewrites it.
    ///
    /// # Errors
    ///
    /// [`AnalysisError::Store`] when the directory cannot be created.
    pub fn with_store(
        config: AnalysisConfig,
        dir: &Path,
    ) -> Result<AnalysisSession, AnalysisError> {
        let t0 = Instant::now();
        let store = SummaryStore::open(dir)?;
        let mut session = AnalysisSession::new(config);
        // Seed the in-memory cache immediately: stale entries are keyed by
        // content hashes that will simply never match again.
        if session.store_usable() {
            session.analyzer.cache_seed(store.scc_entries());
        }
        session.store = Some(store);
        session.store_load_ns = Some(t0.elapsed().as_nanos() as u64);
        Ok(session)
    }

    /// Disables (or re-enables) whole-program manifest replay; summaries
    /// still seed the cache. Used when the caller needs a real
    /// [`AnalysisResult`] every time (e.g. `--dot` output).
    pub fn set_replay(&mut self, on: bool) {
        self.replay_enabled = on;
    }

    /// In strict mode, degraded runs (exit codes 3/4) return
    /// [`AnalysisError::Budget`] / [`AnalysisError::Fault`] instead of a
    /// degraded outcome.
    pub fn set_strict(&mut self, on: bool) {
        self.strict = on;
    }

    /// Sets (or clears) the wall-clock deadline for subsequent checks.
    ///
    /// This is the per-request deadline hook used by `safeflow serve`: a
    /// check that overruns degrades conservatively through the budget
    /// machinery (exit code 4) instead of hanging. Deadlines never key the
    /// store — they can only degrade a run, and degraded runs are not
    /// persisted — so varying this between checks cannot defeat warm
    /// replay.
    pub fn set_deadline_ms(&mut self, ms: Option<u64>) {
        self.analyzer.config_mut().budget.deadline_ms = ms;
    }

    /// Whether another live process held the store's writer lock when this
    /// session opened it. A lock-busy store is detached: the session runs
    /// cold and persists nothing, rather than racing the concurrent writer
    /// (typically a resident `safeflow serve` daemon).
    pub fn store_lock_busy(&self) -> bool {
        self.store.as_ref().is_some_and(|s| s.lock_busy())
    }

    /// The wrapped analyzer.
    pub fn analyzer(&self) -> &Analyzer {
        &self.analyzer
    }

    /// An armed fault plan makes results non-reproducible, so it disables
    /// persistence wholesale (replay and save).
    fn store_usable(&self) -> bool {
        self.analyzer.config().fault_plan.is_none()
    }

    /// Checks the files at `paths` (first path is the root translation
    /// unit), reading them from disk into a virtual file system.
    ///
    /// # Errors
    ///
    /// [`AnalysisError::Io`] for unreadable inputs, plus everything
    /// [`AnalysisSession::check`] returns.
    pub fn check_files(&mut self, paths: &[String]) -> Result<SessionOutcome, AnalysisError> {
        let mut fs = VirtualFs::new();
        for p in paths {
            let text = std::fs::read_to_string(p)
                .map_err(|e| AnalysisError::Io { path: std::path::PathBuf::from(p), source: e })?;
            fs.add(p.as_str(), text);
        }
        let root = paths.first().map(String::as_str).unwrap_or_default().to_string();
        self.check(&root, &fs)
    }

    /// Checks `root` (resolving `#include`s against `fs`), replaying or
    /// incrementally re-analyzing per the store state.
    ///
    /// # Errors
    ///
    /// [`AnalysisError::Parse`] when the input fails to parse or lower,
    /// [`AnalysisError::Store`] when the store cannot be written, and in
    /// strict mode [`AnalysisError::Budget`] / [`AnalysisError::Fault`]
    /// for degraded runs.
    pub fn check(&mut self, root: &str, fs: &VirtualFs) -> Result<SessionOutcome, AnalysisError> {
        let t0 = Instant::now();
        let usable = self.store_usable() && self.store.is_some() && !self.store_lock_busy();
        let key = usable.then(|| {
            let files: Vec<(String, String)> = fs
                .names()
                .iter()
                .map(|n| (n.to_string(), fs.get(n).unwrap_or_default().to_string()))
                .collect();
            manifest_key(config_hash(self.analyzer.config()), root, &files)
        });

        // 1. Exact whole-program replay.
        if self.replay_enabled {
            if let (Some(key), Some(store)) = (key, self.store.as_ref()) {
                if let Some(entry) = store.manifest(key) {
                    if let Ok(report) = Json::parse(&entry.report_json) {
                        return Ok(self.replay(entry.clone(), report, t0));
                    }
                    // A stored subtree that fails to re-parse means the
                    // entry is unusable; fall through to a full run that
                    // will overwrite it. (Unreachable in practice — the
                    // file is checksummed — but never trust the disk.)
                }
            }
        }

        // 2. Full run over a store-seeded cache.
        let result = self.analyzer.analyze_program(root, fs)?;
        let exit_code = result.report.exit_code();
        let mut metrics = self.analyzer.last_metrics();
        self.record_store_load(&mut metrics);
        if usable {
            if let Some(store) = &self.store {
                metrics.work.insert("store.manifest_hits".to_string(), 0);
                metrics.work.insert("store.manifest_misses".to_string(), 1);
                metrics.work.insert("store.sccs_loaded".to_string(), store.scc_count() as u64);
                if store.load_rejected() {
                    metrics.work.insert("store.load_rejected".to_string(), 1);
                }
            }
        } else if self.store_lock_busy() {
            // A concurrent writer owns the store directory: this run was
            // deliberately cold (no replay, no seed, no save).
            metrics.work.insert("store.lock_busy".to_string(), 1);
        }

        let render_start = Instant::now();
        let rendered = result.render();
        let render_ns = render_start.elapsed().as_nanos() as u64;
        metrics.timings_ns.insert("report.render_ns".to_string(), render_ns);

        // 3. Persist clean results (degraded ones are never stored: their
        // output is not a pure function of the inputs).
        if exit_code < 3 {
            if let (Some(key), Some(store)) = (key, self.store.as_mut()) {
                let save_start = Instant::now();
                let entry = ReplayEntry {
                    exit_code,
                    counters: metrics.counters.clone(),
                    report_json: result.report.to_json(&result.sources).render(),
                    rendered: rendered.clone(),
                    schema: result.report.schema().to_string(),
                };
                let stats = store.save(key, entry, self.analyzer.cache_export_live())?;
                metrics.work.insert("store.sccs_saved".to_string(), stats.sccs_saved as u64);
                metrics
                    .work
                    .insert("store.sccs_invalidated".to_string(), stats.sccs_invalidated as u64);
                let save_ns = save_start.elapsed().as_nanos() as u64;
                metrics.timings_ns.insert("store.save_ns".to_string(), save_ns);
            }
        } else if self.strict {
            let degradations = result.report.degradations.clone();
            return Err(if exit_code == 4 {
                AnalysisError::Budget { degradations }
            } else {
                AnalysisError::Fault { degradations }
            });
        }
        metrics.timings_ns.insert("session.check_ns".to_string(), t0.elapsed().as_nanos() as u64);

        let report_json = self.analyzer.report_json_with(&result, &metrics);
        Ok(SessionOutcome {
            run: SessionRun::Analyzed,
            exit_code,
            rendered,
            report_json,
            metrics,
            result: Some(result),
        })
    }

    fn record_store_load(&self, metrics: &mut MetricsSnapshot) {
        if let Some(ns) = self.store_load_ns {
            metrics.timings_ns.insert("store.load_ns".to_string(), ns);
        }
    }

    /// Builds a replayed outcome from a stored manifest entry: counters
    /// verbatim (they are cache-state-invariant by definition), store
    /// bookkeeping as `Work`, empty schedule sections.
    fn replay(&self, entry: ReplayEntry, report: Json, t0: Instant) -> SessionOutcome {
        let mut metrics = MetricsSnapshot { counters: entry.counters, ..Default::default() };
        self.record_store_load(&mut metrics);
        metrics.work.insert("store.manifest_hits".to_string(), 1);
        metrics.work.insert("store.manifest_misses".to_string(), 0);
        let loaded = self.store.as_ref().map(|s| s.scc_count()).unwrap_or(0) as u64;
        metrics.work.insert("store.sccs_loaded".to_string(), loaded);
        metrics.timings_ns.insert("session.check_ns".to_string(), t0.elapsed().as_nanos() as u64);

        let mut doc = Json::obj();
        doc.set("schema", entry.schema.as_str());
        doc.set("exit_code", u64::from(entry.exit_code));
        doc.set("report", report);
        doc.set("budget", self.analyzer.budget_json());
        doc.set("cache", self.analyzer.cache_json());
        doc.set("metrics", metrics.to_json());
        SessionOutcome {
            run: SessionRun::Replayed,
            exit_code: entry.exit_code,
            rendered: entry.rendered,
            report_json: doc,
            metrics,
            result: None,
        }
    }
}
