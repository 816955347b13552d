//! # safeflow
//!
//! A from-scratch implementation of **SafeFlow** (Kowshik, Roşu, Sha —
//! *Static Analysis to Enforce Safe Value Flow in Embedded Control
//! Systems*, DSN 2006): an annotation-driven static analysis that verifies
//! the **safe value flow** property of embedded control software:
//!
//! > All non-core values flowing into a core component should be monitored
//! > before use in critical computation.
//!
//! The analyzer consumes the core component's C source (restricted subset,
//! §3.2) with four kinds of annotations (§3.1/§3.2.1):
//!
//! * `shminit` on shared-memory initializing functions,
//! * `assume(shmvar(p, size))` / `assume(noncore(p))` post-conditions
//!   declaring shared-memory regions,
//! * `assume(core(p, offset, size))` on monitoring functions,
//! * `assert(safe(x))` on critical data.
//!
//! and runs the paper's three phases: shared-memory pointer identification,
//! language-restriction enforcement (P1–P3, A1/A2 via an Omega-test
//! solver), and an interprocedural, context-sensitive value-flow analysis
//! that reports unmonitored accesses (warnings) and critical-data
//! dependencies (errors, with control-only dependencies flagged as the
//! false-positive candidates the paper triages by hand).
//!
//! # Examples
//!
//! ```
//! use safeflow::{Analyzer, AnalysisConfig};
//!
//! let src = r#"
//!     typedef struct { float control; } SHMData;
//!     SHMData *noncoreCtrl;
//!     void *shmat(int shmid, void *addr, int flags);
//!     void sendControl(float v);
//!
//!     void initComm(void)
//!     /** SafeFlow Annotation shminit */
//!     {
//!         noncoreCtrl = (SHMData *) shmat(0, 0, 0);
//!         /** SafeFlow Annotation
//!             assume(shmvar(noncoreCtrl, sizeof(SHMData)))
//!             assume(noncore(noncoreCtrl))
//!         */
//!     }
//!
//!     int main() {
//!         float output;
//!         initComm();
//!         output = noncoreCtrl->control;   /* unmonitored! */
//!         /** SafeFlow Annotation assert(safe(output)) */
//!         sendControl(output);
//!         return 0;
//!     }
//! "#;
//! let result = Analyzer::new(AnalysisConfig::default())
//!     .analyze_source("core.c", src)
//!     .expect("program parses");
//! assert_eq!(result.report.warnings.len(), 1);
//! assert_eq!(result.report.errors.len(), 1);
//! ```

#![warn(missing_docs)]

pub mod config;
pub mod engine;
pub mod flowgraph;
pub mod policy;
pub mod regions;
pub mod report;
pub mod restrict;
mod scope;
pub mod session;
pub mod shmptr;
mod store;
pub mod summary;
pub mod taint;

pub use config::{AnalysisConfig, AnalyzerBuilder, Budget, CriticalCall, Engine, RecvSpec};
pub use engine::CacheStats;
pub use policy::{ImplicitFlowMode, LabelDecl, LabelTable, Policy, PolicyBuilder, MAX_LABELS};
pub use regions::{Region, RegionId, RegionMap};
pub use report::{
    AnalysisReport, Degradation, DegradationKind, DependencyKind, ErrorDependency, FlowNode,
    RegionInfo, Restriction, RestrictionViolation, Warning,
};
pub use safeflow_util::fault::{FaultKind, FaultPlan, FaultSite};
pub use safeflow_util::json::Json;
pub use safeflow_util::metrics::MetricsSnapshot;
pub use session::{AnalysisSession, SessionOutcome, SessionRun};

use safeflow_ir::lower::lower;
use safeflow_ir::ssa::promote_module;
use safeflow_ir::{CallGraph, Cfg, Module};
use safeflow_points_to::PointsTo;
use safeflow_syntax::{Diagnostics, SourceMap, VirtualFs};
use safeflow_util::lock_recover;
use safeflow_util::metrics::{Class, Metrics};
use std::sync::Mutex;

/// A completed analysis: the report plus everything needed to render it.
#[derive(Debug)]
pub struct AnalysisResult {
    /// The findings.
    pub report: AnalysisReport,
    /// Source map for rendering spans.
    pub sources: SourceMap,
    /// Frontend/lowering diagnostics (never contains errors — those abort
    /// the run).
    pub diags: Diagnostics,
    /// The lowered module, for tooling (value-flow graph dumps etc.).
    pub module: Module,
}

impl AnalysisResult {
    /// Renders report + diagnostics as a human-readable block.
    pub fn render(&self) -> String {
        let mut out = self.report.render(&self.sources);
        if !self.diags.is_empty() {
            out.push_str(&self.diags.render_all(&self.sources));
            out.push('\n');
        }
        out
    }
}

/// Errors aborting an analysis run or session operation.
///
/// Non-exhaustive: new variants may appear in future releases, so matches
/// must carry a wildcard arm. Variants that wrap an underlying error expose
/// it through [`std::error::Error::source`].
#[derive(Debug)]
#[non_exhaustive]
pub enum AnalysisError {
    /// The source failed to parse or lower.
    #[non_exhaustive]
    Parse {
        /// Frontend/lowering diagnostics explaining the failure.
        diags: Diagnostics,
        /// Source map for rendering them.
        sources: SourceMap,
    },
    /// An input file could not be read (session entry points only).
    #[non_exhaustive]
    Io {
        /// The file that failed.
        path: std::path::PathBuf,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// The persistent summary store could not be written or created.
    /// (A store that fails to *load* — corrupt, truncated, wrong version —
    /// is not an error: the session degrades to a cold run instead.)
    #[non_exhaustive]
    Store {
        /// What the store operation was doing.
        context: String,
        /// The underlying I/O error, when one exists.
        source: Option<std::io::Error>,
    },
    /// A strict-mode session run degraded because a resource budget was
    /// exhausted (exit code 3 territory).
    #[non_exhaustive]
    Budget {
        /// The degradations the run reported.
        degradations: Vec<Degradation>,
    },
    /// A strict-mode session run degraded because an analysis fault was
    /// contained (exit code 4 territory).
    #[non_exhaustive]
    Fault {
        /// The degradations the run reported.
        degradations: Vec<Degradation>,
    },
}

impl AnalysisError {
    /// The frontend diagnostics, when this is a parse error.
    pub fn diagnostics(&self) -> Option<&Diagnostics> {
        match self {
            AnalysisError::Parse { diags, .. } => Some(diags),
            _ => None,
        }
    }

    fn degradation_summary(degradations: &[Degradation]) -> String {
        let mut kinds: Vec<String> = degradations.iter().map(|d| format!("{:?}", d.kind)).collect();
        kinds.sort();
        kinds.dedup();
        kinds.join(", ")
    }
}

impl std::fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AnalysisError::Parse { diags, sources } => {
                write!(f, "{}", diags.render_all(sources))
            }
            AnalysisError::Io { path, source } => {
                write!(f, "cannot read `{}`: {source}", path.display())
            }
            AnalysisError::Store { context, source } => match source {
                Some(e) => write!(f, "summary store: {context}: {e}"),
                None => write!(f, "summary store: {context}"),
            },
            AnalysisError::Budget { degradations } => write!(
                f,
                "analysis degraded: budget exhausted ({})",
                AnalysisError::degradation_summary(degradations)
            ),
            AnalysisError::Fault { degradations } => write!(
                f,
                "analysis degraded: fault contained ({})",
                AnalysisError::degradation_summary(degradations)
            ),
        }
    }
}

impl std::error::Error for AnalysisError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AnalysisError::Io { source, .. } => Some(source),
            AnalysisError::Store { source: Some(e), .. } => Some(e),
            _ => None,
        }
    }
}

/// Compiles the label policy for `module`: config-declared labels merged
/// with annotation-declared ones (`label(...)` / `declassifier(...)`
/// facts), then `channel(...)` region labels and critical-call clearances
/// bound. The default two-point policy compiles to the empty table, under
/// which everything downstream reduces to the historical
/// monitored/unmonitored behavior byte-for-byte.
pub(crate) fn compile_policy(
    config: &AnalysisConfig,
    module: &Module,
    regions: &RegionMap,
) -> (LabelTable, Vec<String>) {
    use safeflow_syntax::annot::Annotation;
    let mut extra_labels: Vec<LabelDecl> = Vec::new();
    let mut extra_declass: Vec<(String, String)> = Vec::new();
    for f in &module.functions {
        for ann in &f.annotations {
            match ann {
                Annotation::Label { name, below, .. } => extra_labels.push(match below {
                    Some(b) => LabelDecl::above(name.clone(), vec![b.clone()]),
                    None => LabelDecl::new(name.clone()),
                }),
                Annotation::Declassifier { from, to, .. } => {
                    extra_declass.push((from.clone(), to.clone()));
                }
                _ => {}
            }
        }
    }
    let (mut table, mut notes) = config.policy.compile(&extra_labels, &extra_declass);
    for r in regions.iter() {
        if let Some(label) = &r.label {
            match table.mask_of(label) {
                Some(mask) => table.set_region_label(r.id.0, mask),
                None => notes.push(format!(
                    "channel({}, ...) names undeclared label `{label}`; region treated as untrusted",
                    r.name
                )),
            }
        }
    }
    for call in &config.implicit_critical_calls {
        if let Some(clearance) = &call.clearance {
            if table.mask_of(clearance).is_none() {
                notes.push(format!(
                    "critical call `{}` names undeclared clearance label `{clearance}`; treated as trusted",
                    call.name
                ));
            }
        }
    }
    (table, notes)
}

impl AnalyzerBuilder {
    /// Finishes the builder into an [`Analyzer`] over the configuration.
    pub fn build(self) -> Analyzer {
        Analyzer::new(self.build_config())
    }
}

/// The SafeFlow analyzer.
///
/// Construct with a config, then call [`Analyzer::analyze_source`] (single
/// file) or [`Analyzer::analyze_program`] (multi-file with `#include`s).
///
/// The analyzer keeps a content-hashed summary cache across calls: when
/// the summary engine re-analyzes a program whose functions (and analysis
/// environment) hash identically to a previous run, their summaries are
/// replayed instead of recomputed — see [`crate::engine`] and
/// [`Analyzer::cache_stats`]. With `config.jobs > 1` the summary and
/// restriction phases run on a thread pool with one ready queue; reports
/// are identical for every worker count.
#[derive(Debug, Default)]
pub struct Analyzer {
    config: AnalysisConfig,
    cache: engine::SummaryCache,
    last_metrics: Mutex<MetricsSnapshot>,
}

impl Analyzer {
    /// Creates an analyzer with `config`.
    pub fn new(config: AnalysisConfig) -> Analyzer {
        Analyzer {
            config,
            cache: engine::SummaryCache::default(),
            last_metrics: Mutex::new(MetricsSnapshot::default()),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &AnalysisConfig {
        &self.config
    }

    /// Mutable access to the configuration, e.g. to arm a
    /// [`FaultPlan`] or tighten the [`Budget`] between runs while keeping
    /// the summary cache warm.
    pub fn config_mut(&mut self) -> &mut AnalysisConfig {
        &mut self.config
    }

    /// Summary-cache hit/miss counters, cumulative over every analysis
    /// this analyzer has run (the context-sensitive engine does not use
    /// the cache and never moves them).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// The metrics recorded by the most recent [`Analyzer::analyze_module`]
    /// run (empty before the first run). Each run starts from a fresh
    /// registry, so `work`-class counters reflect that run's cache state
    /// alone — see [`safeflow_util::metrics`] for the determinism classes.
    pub fn last_metrics(&self) -> MetricsSnapshot {
        lock_recover(&self.last_metrics).clone()
    }

    /// Composes the full machine-readable report for `result` (which must
    /// come from this analyzer's most recent run): findings, configured
    /// budget limits, cumulative cache stats, and the run's metrics, in
    /// one stable schema — `safeflow-report-v1` for default-policy runs
    /// (frozen), `safeflow-report-v2` when a label policy is in effect
    /// (see [`AnalysisReport::schema`]).
    ///
    /// Everything except the `metrics.sched`, `metrics.dist`, and
    /// `metrics.timings_ns` sections is byte-identical across `--jobs`
    /// counts; comparing cache-warm against cache-cold runs additionally
    /// excludes `metrics.work` and `cache`.
    pub fn report_json(&self, result: &AnalysisResult) -> Json {
        self.report_json_with(result, &self.last_metrics())
    }

    /// [`Analyzer::report_json`] with an explicit metrics snapshot —
    /// sessions use this to fold their store bookkeeping into the
    /// document's `metrics` object.
    pub fn report_json_with(&self, result: &AnalysisResult, metrics: &MetricsSnapshot) -> Json {
        let mut o = Json::obj();
        o.set("schema", result.report.schema());
        o.set("exit_code", u64::from(result.report.exit_code()));
        o.set("report", result.report.to_json(&result.sources));
        o.set("budget", self.budget_json());
        o.set("cache", self.cache_json());
        o.set("metrics", metrics.to_json());
        o
    }

    /// The `budget` section of the report document.
    pub(crate) fn budget_json(&self) -> Json {
        let mut budget = Json::obj();
        budget.set("solver_steps", self.config.budget.solver_steps);
        budget.set("fixpoint_rounds", self.config.budget.fixpoint_rounds);
        budget.set("max_function_insts", self.config.budget.max_function_insts);
        budget.set("deadline_ms", self.config.budget.deadline_ms);
        budget
    }

    /// The `cache` section of the report document (cumulative stats).
    pub(crate) fn cache_json(&self) -> Json {
        let cs = self.cache_stats();
        let mut cache = Json::obj();
        cache.set("hits", cs.hits);
        cache.set("misses", cs.misses);
        cache
    }

    /// Seeds the in-memory summary cache from a persistent store (no
    /// effect on hit/miss stats until a run probes the entries).
    pub(crate) fn cache_seed(&self, entries: Vec<(u64, std::sync::Arc<Vec<summary::Summary>>)>) {
        self.cache.seed(entries);
    }

    /// Exports the most recent run's live summary entries for persistence.
    pub(crate) fn cache_export_live(&self) -> Vec<(u64, std::sync::Arc<Vec<summary::Summary>>)> {
        self.cache.export_live()
    }

    /// Analyzes a single self-contained source file.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError`] when the source fails to parse or lower.
    pub fn analyze_source(&self, name: &str, src: &str) -> Result<AnalysisResult, AnalysisError> {
        let mut fs = VirtualFs::new();
        fs.add(name, src);
        self.analyze_program(name, &fs)
    }

    /// Analyzes `main_name` from `fs`, resolving `#include`s against `fs`.
    ///
    /// The frontend is timed into the run's metrics alongside the analysis
    /// phases: `phase.preprocess` (lex and preprocess), `phase.parse`,
    /// `phase.lower` and `phase.ssa`.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError`] when the source fails to parse or lower.
    pub fn analyze_program(
        &self,
        main_name: &str,
        fs: &VirtualFs,
    ) -> Result<AnalysisResult, AnalysisError> {
        let deadline = self.deadline();
        let metrics = Metrics::new();
        let preprocessed = metrics.time("phase.preprocess", || {
            safeflow_syntax::preprocess_program_jobs(main_name, fs, self.config.jobs.max(1))
        });
        let parsed =
            metrics.time("phase.parse", || safeflow_syntax::parse_preprocessed(preprocessed));
        let mut diags = parsed.diags;
        let sources = parsed.sources;
        if diags.has_errors() {
            return Err(AnalysisError::Parse { diags, sources });
        }
        let mut module = metrics.time("phase.lower", || lower(&parsed.unit, &mut diags));
        metrics.time("phase.ssa", || promote_module(&mut module));
        if diags.has_errors() {
            return Err(AnalysisError::Parse { diags, sources });
        }
        let report = self.run_phases(&module, &mut diags, metrics, deadline);
        if diags.has_errors() {
            return Err(AnalysisError::Parse { diags, sources });
        }
        Ok(AnalysisResult { report, sources, diags, module })
    }

    /// Runs the three analysis phases over an already-lowered module.
    ///
    /// Failures inside the phases do not abort the run: contained panics
    /// and exhausted budgets degrade the affected scopes conservatively
    /// and surface as [`Degradation`] entries on the report (see
    /// [`AnalysisReport::exit_code`]).
    pub fn analyze_module(&self, module: &Module, diags: &mut Diagnostics) -> AnalysisReport {
        self.run_phases(module, diags, Metrics::new(), self.deadline())
    }

    /// The run's one wall-clock deadline (the only machine-dependent
    /// budget; determinism tests never set it), counted from the start of
    /// the run: the frontend's time counts against it too.
    fn deadline(&self) -> Option<std::time::Instant> {
        let ms = self.config.budget.deadline_ms?;
        Some(std::time::Instant::now() + std::time::Duration::from_millis(ms))
    }

    /// [`Analyzer::analyze_module`], recording into `metrics`: a fresh
    /// registry per run, so `work`-class counters reflect this run's cache
    /// state alone (see `safeflow_util::metrics`).
    fn run_phases(
        &self,
        module: &Module,
        diags: &mut Diagnostics,
        metrics: Metrics,
        deadline: Option<std::time::Instant>,
    ) -> AnalysisReport {
        metrics.add_many(Class::Counter, &[("module.functions", module.functions.len() as u64)]);
        // Region model + static InitCheck (§3.2.1).
        let regions = metrics.time("phase.regions", || {
            regions::extract_regions(module, &self.config.shm_attach_functions, diags)
        });
        let (table, mut policy_notes) =
            metrics.time("phase.policy", || compile_policy(&self.config, module, &regions));
        // Phase 1: shared-memory pointer identification.
        let shm = metrics.time("phase.shmptr", || shmptr::identify_shm_pointers(module, &regions));
        // Phase 2: language restrictions.
        let callgraph = metrics.time("phase.callgraph", || CallGraph::build(module));
        // Each function's CFG, indexed by `FuncId` (`None` for prototypes),
        // shared by restrictions and value flow.
        let cfgs: Vec<Option<Cfg>> = metrics.time("phase.cfg", || {
            module.functions.iter().map(|f| (!f.blocks.is_empty()).then(|| Cfg::build(f))).collect()
        });
        let (violations, mut degradations) = metrics.time("phase.restrict", || {
            restrict::check_restrictions(
                module,
                &regions,
                &shm,
                &callgraph,
                &cfgs,
                &self.config,
                deadline,
                &metrics,
            )
        });
        // Phase 3: warnings + critical-data value flow.
        let pt = metrics.time("phase.points_to", || PointsTo::analyze(module));
        let results = metrics.time("phase.value_flow", || match self.config.engine {
            Engine::ContextSensitive => taint::analyze_taint(
                module,
                &regions,
                &shm,
                &pt,
                &cfgs,
                &self.config,
                &table,
                deadline,
                &metrics,
            ),
            Engine::Summary => summary::analyze_summaries(
                module,
                &regions,
                &shm,
                &pt,
                &callgraph,
                &cfgs,
                &self.config,
                &table,
                &self.cache,
                deadline,
                &metrics,
            ),
        });
        degradations.extend(results.degradations.iter().cloned());

        // Count every annotation fact bound anywhere in the module.
        let annotation_count = module.functions.iter().map(|f| f.annotations.len()).sum::<usize>()
            + module
                .functions
                .iter()
                .flat_map(|f| f.insts.iter())
                .filter(|i| matches!(i.kind, safeflow_ir::InstKind::AssertSafe { .. }))
                .count();

        let mut init_check = regions.init_check.clone();
        policy_notes.sort();
        policy_notes.dedup();
        init_check.extend(policy_notes);
        init_check.extend(results.notes.iter().cloned());

        // Per-policy implicit-flow handling (post-engine so both engines —
        // and their caches — share one implementation): `strict` treats
        // control-only dependencies as definite errors, `taint-only` drops
        // them, `report-separately` (the default, the paper's behavior)
        // keeps them flagged as false-positive candidates.
        let mut errors = results.errors;
        match table.mode() {
            ImplicitFlowMode::Strict => {
                for e in &mut errors {
                    e.kind = DependencyKind::Data;
                }
            }
            ImplicitFlowMode::TaintOnly => {
                errors.retain(|e| e.kind != DependencyKind::ControlOnly);
            }
            ImplicitFlowMode::ReportSeparately => {}
        }

        let mut report = AnalysisReport {
            regions: regions
                .iter()
                .map(|r| RegionInfo {
                    id: r.id,
                    name: r.name.clone(),
                    size: r.size,
                    noncore: r.noncore,
                    offset: r.offset,
                })
                .collect(),
            warnings: results.warnings,
            errors,
            violations,
            init_check,
            annotation_count,
            contexts_analyzed: results.contexts_analyzed,
            degradations,
            labeled: !table.is_default(),
        };
        report.canonicalize();
        // Report counts are covered by the byte-identity contract, so they
        // are `Counter`-class by construction.
        metrics.add_many(
            Class::Counter,
            &[
                ("report.warnings", report.warnings.len() as u64),
                ("report.errors", report.errors.len() as u64),
                ("report.violations", report.violations.len() as u64),
                ("report.degradations", report.degradations.len() as u64),
            ],
        );
        *lock_recover(&self.last_metrics) = metrics.snapshot();
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn last_metrics_survives_a_poisoned_lock() {
        let analyzer = Analyzer::new(AnalysisConfig::default());
        let mut fs = VirtualFs::new();
        fs.add("main.c", "int main() { return 0; }");
        analyzer.analyze_program("main.c", &fs).unwrap();
        let before = analyzer.last_metrics();
        assert!(!before.counters.is_empty());

        // A panic while the lock is held, as a contained panic elsewhere
        // in a long-lived process would leave it.
        std::thread::scope(|s| {
            let _ = s
                .spawn(|| {
                    let _guard = analyzer.last_metrics.lock();
                    panic!("poisoning the lock on purpose");
                })
                .join();
        });
        assert!(analyzer.last_metrics.is_poisoned());

        assert_eq!(analyzer.last_metrics().counters, before.counters);
        fs.add("main.c", "int f(int x) { return x; } int main() { return f(1); }");
        analyzer.analyze_program("main.c", &fs).unwrap();
        assert_ne!(analyzer.last_metrics().counters, before.counters, "the next run still records");
    }
}
