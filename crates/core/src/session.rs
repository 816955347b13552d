//! Multi-translation-unit analysis sessions with incremental re-analysis.
//!
//! An [`AnalysisSession`] wraps a stateless [`Analyzer`], the summary
//! table of its last check and (optionally) a persistent [`crate::store`]
//! directory, and drives whole-program checks over a set of input files.
//! The session is the one place a summary table lives between runs:
//!
//! 1. **Exact replay** — when every input file, the root, and the
//!    configuration hash to a stored manifest, the session replays the
//!    stored report without parsing anything (`run == Replayed`, zero SCCs
//!    re-analyzed).
//! 2. **Incremental re-analysis** — otherwise the full pipeline runs
//!    against the session's summary table (on its first analyzed check the
//!    store's per-SCC table, which is decoded only then, afterwards the
//!    last check's); unchanged SCCs hit,
//!    the dirty region (edited SCCs plus their transitive dependents in the
//!    call graph) recomputes, and the session keeps the run's own table and
//!    saves it back with the re-linked whole-program report. A check that
//!    returns an error leaves the table as it was.
//!
//! Replayed and analyzed runs produce byte-identical reports (stripped per
//! the observability contract): the manifest stores the cold run's exit
//! code, `Counter`-class metrics and `report` subtree, and both kinds of
//! check draw their text from that subtree. Store bookkeeping lands in
//! `Work`-class metrics, which the warm/cold comparison strips by
//! definition. Degraded runs (exit code ≥ 3) are never persisted, and an
//! armed fault plan disables the store entirely.
//!
//! An analyzed check also times its report rendering (`report.render_ns`:
//! the run's JSON subtree and the text drawn from it) and its store save
//! (`store.save_ns`) next to the analyzer's phase timings, all in the
//! volatile `timings_ns` section. Every check of a session with a store,
//! analyzed or replayed, carries the time the session has spent opening
//! that store and, from its first analyzed check on, decoding its SCC
//! table (`store.load_ns`). The `Work` counter `store.sccs_decoded` counts
//! the SCC entries a check decoded: the store's whole table on the first
//! analyzed check, none on a replay or a later check.

use crate::engine::SccTable;
use crate::report::render_text;
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
    /// The human-readable report, drawn from the document's `report` member.
    pub rendered: String,
    /// The full report document (`safeflow-report-v1` under the default
    /// two-point policy, `safeflow-report-v2` when labels are declared).
    pub report_json: Json,
    /// The run's metrics (including `store.*` bookkeeping in the `work`
    /// section when a store is attached).
    pub metrics: MetricsSnapshot,
    /// The underlying analysis result — `None` for replayed runs, which
    /// analyze nothing.
    pub result: Option<AnalysisResult>,
}

/// A multi-file analysis session: an analyzer, the last check's summary
/// table, and an optional persistent summary store. See the module docs for
/// the incremental protocol.
#[derive(Debug)]
pub struct AnalysisSession {
    analyzer: Analyzer,
    /// The last analyzed check's summary table (the store's, decoded by
    /// the first one): the prior table of the next check.
    sccs: SccTable,
    store: Option<SummaryStore>,
    /// Opening the store and, once a check has analyzed, decoding its SCC
    /// table.
    store_load_ns: Option<u64>,
}

impl AnalysisSession {
    /// A session without persistence. Its first check starts from an empty
    /// summary table; each later check reuses the summaries of the last
    /// analyzed one.
    pub fn new(config: AnalysisConfig) -> AnalysisSession {
        AnalysisSession {
            analyzer: Analyzer::new(config),
            sccs: SccTable::new(),
            store: None,
            store_load_ns: None,
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
        session.store = Some(store);
        session.store_load_ns = Some(t0.elapsed().as_nanos() as u64);
        Ok(session)
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
        self.analyzer.config.budget.deadline_ms = ms;
    }

    /// Whether another live process held the store's writer lock when this
    /// session opened it. A lock-busy store is detached: the session runs
    /// cold and persists nothing, rather than racing the concurrent writer
    /// (typically a resident `safeflow serve` daemon).
    pub fn store_lock_busy(&self) -> bool {
        self.store.as_ref().is_some_and(|s| s.lock_busy())
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
    /// [`AnalysisError::Parse`] when the input fails to parse or lower, and
    /// [`AnalysisError::Store`] when the store cannot be written. Either
    /// way the session's summary table stays as it was.
    pub fn check(&mut self, root: &str, fs: &VirtualFs) -> Result<SessionOutcome, AnalysisError> {
        let t0 = Instant::now();
        let usable = self.store_usable() && self.store.is_some() && !self.store_lock_busy();
        let key =
            usable.then(|| manifest_key(config_hash(self.analyzer.config()), root, fs.iter()));

        // 1. Exact whole-program replay.
        if let (Some(key), Some(store)) = (key, self.store.as_ref()) {
            if let Some(entry) = store.manifest(key) {
                if let Ok(report) = Json::parse(&entry.report_json) {
                    return Ok(self.replay(entry, report, t0));
                }
                // A stored subtree that fails to re-parse means the
                // entry is unusable; fall through to a full run that
                // will overwrite it. (Unreachable in practice — the
                // file is checksummed — but never trust the disk.)
            }
        }

        // 2. Full run over the session's summary table, seeded from the
        // store on the first one.
        let decoded = if usable { self.decode_stored_sccs() } else { 0 };
        let (mut result, sccs) = self.analyzer.run(root, fs, &self.sccs)?;
        let exit_code = result.report.exit_code();
        let render_start = Instant::now();
        let rendered = result.render();
        let render_ns = render_start.elapsed().as_nanos() as u64;
        let metrics = &mut result.metrics;
        *metrics.timings_ns.entry("report.render_ns".to_string()).or_default() += render_ns;
        self.record_store_load(metrics);
        if usable {
            if let Some(store) = &self.store {
                metrics.work.insert("store.manifest_hits".to_string(), 0);
                metrics.work.insert("store.manifest_misses".to_string(), 1);
                metrics.work.insert("store.sccs_loaded".to_string(), store.scc_count() as u64);
                metrics.work.insert("store.sccs_decoded".to_string(), decoded as u64);
                if store.load_rejected() {
                    metrics.work.insert("store.load_rejected".to_string(), 1);
                }
            }
        } else if self.store_lock_busy() {
            // A concurrent writer owns the store directory: this run was
            // deliberately cold (no replay, no seed, no save).
            metrics.work.insert("store.lock_busy".to_string(), 1);
        }

        // 3. Persist clean results (degraded ones are never stored: their
        // output is not a pure function of the inputs).
        if exit_code < 3 {
            if let (Some(key), Some(store)) = (key, self.store.as_mut()) {
                let save_start = Instant::now();
                let entry = ReplayEntry {
                    exit_code,
                    counters: metrics.counters.clone(),
                    report_json: result.report_json.render(),
                    schema: result.report.schema().to_string(),
                };
                let stats = store.save(key, entry, &sccs)?;
                metrics.work.insert("store.sccs_saved".to_string(), stats.sccs_saved as u64);
                metrics
                    .work
                    .insert("store.sccs_invalidated".to_string(), stats.sccs_invalidated as u64);
                let save_ns = save_start.elapsed().as_nanos() as u64;
                metrics.timings_ns.insert("store.save_ns".to_string(), save_ns);
            }
        }
        self.sccs = sccs;
        metrics.timings_ns.insert("session.check_ns".to_string(), t0.elapsed().as_nanos() as u64);

        Ok(SessionOutcome {
            run: SessionRun::Analyzed,
            exit_code,
            rendered,
            report_json: self.analyzer.report_json(&result),
            metrics: result.metrics.clone(),
            result: Some(result),
        })
    }

    /// Decodes the store's SCC table into the session's summary table, on
    /// the first analyzed check, and adds the time to `store.load_ns`.
    /// The stored table is that check's prior table: stale entries are
    /// keyed by content hashes that will simply never match again. Returns
    /// the entries decoded.
    fn decode_stored_sccs(&mut self) -> usize {
        let t0 = Instant::now();
        let Some(table) = self.store.as_mut().and_then(SummaryStore::decode_sccs) else {
            return 0;
        };
        let decoded = table.len();
        self.sccs = table;
        *self.store_load_ns.get_or_insert(0) += t0.elapsed().as_nanos() as u64;
        decoded
    }

    fn record_store_load(&self, metrics: &mut MetricsSnapshot) {
        if let Some(ns) = self.store_load_ns {
            metrics.timings_ns.insert("store.load_ns".to_string(), ns);
        }
    }

    /// Builds a replayed outcome from a stored manifest entry and its
    /// parsed `report` subtree: the text drawn from the subtree, counters
    /// verbatim (they are cache-state-invariant by definition), store
    /// bookkeeping as `Work`, empty schedule sections.
    fn replay(&self, entry: &ReplayEntry, report: Json, t0: Instant) -> SessionOutcome {
        let rendered = render_text(&report);
        let mut metrics =
            MetricsSnapshot { counters: entry.counters.clone(), ..Default::default() };
        self.record_store_load(&mut metrics);
        metrics.work.insert("store.manifest_hits".to_string(), 1);
        metrics.work.insert("store.manifest_misses".to_string(), 0);
        let loaded = self.store.as_ref().map(|s| s.scc_count()).unwrap_or(0) as u64;
        metrics.work.insert("store.sccs_loaded".to_string(), loaded);
        metrics.work.insert("store.sccs_decoded".to_string(), 0);
        metrics.timings_ns.insert("session.check_ns".to_string(), t0.elapsed().as_nanos() as u64);

        let report_json =
            self.analyzer.report_document(&entry.schema, entry.exit_code, report, &metrics);
        SessionOutcome {
            run: SessionRun::Replayed,
            exit_code: entry.exit_code,
            rendered,
            report_json,
            metrics,
            result: None,
        }
    }
}
