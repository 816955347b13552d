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
//! // Every output is drawn from the report's JSON form.
//! assert!(result.render().contains("ERROR: critical `output` in `main`"));
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
use safeflow_util::metrics::{Class, Metrics};

/// A completed analysis: the findings and their JSON form, which every
/// output reads. The module and the source map do not outlive the run.
#[derive(Debug)]
pub struct AnalysisResult {
    /// The findings.
    pub report: AnalysisReport,
    /// The findings with spans resolved and frontend diagnostics included:
    /// the report document's `report` member ([`AnalysisReport::to_json`]).
    pub report_json: Json,
    /// The run's metrics: a fresh registry per run, so `work`-class
    /// counters reflect that run's cache state alone — see
    /// [`safeflow_util::metrics`] for the determinism classes.
    pub metrics: MetricsSnapshot,
}

impl AnalysisResult {
    /// Renders the report and its frontend diagnostics as the
    /// human-readable text ([`report::render_text`]).
    pub fn render(&self) -> String {
        report::render_text(&self.report_json)
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
}

impl AnalysisError {
    /// The frontend diagnostics, when this is a parse error.
    pub fn diagnostics(&self) -> Option<&Diagnostics> {
        match self {
            AnalysisError::Parse { diags, .. } => Some(diags),
            _ => None,
        }
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
/// The analyzer holds its configuration and nothing else, so a run is a
/// pure function of the configuration and the program: each run starts
/// from an empty summary table. Summary reuse across runs is an
/// [`AnalysisSession`]'s job — the session keeps the last run's
/// content-keyed table (see [`crate::engine`]) and hands it to the next
/// check. Each run reports its own hits and misses as the
/// `summary.cache_hits` and `summary.cache_misses` work metrics of
/// [`AnalysisResult::metrics`]. With `config.jobs > 1` the summary and
/// restriction phases run on a thread pool with one ready queue; reports
/// are identical for every worker count.
#[derive(Debug, Default)]
pub struct Analyzer {
    config: AnalysisConfig,
}

impl Analyzer {
    /// Creates an analyzer with `config`.
    pub fn new(config: AnalysisConfig) -> Analyzer {
        Analyzer { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &AnalysisConfig {
        &self.config
    }

    /// Composes the full machine-readable report for `result`: findings,
    /// configured budget limits, the run's summary-cache hits and misses,
    /// and the run's own [`AnalysisResult::metrics`], in one stable schema —
    /// `safeflow-report-v1` for default-policy runs (frozen),
    /// `safeflow-report-v2` when a label policy is in effect (see
    /// [`AnalysisReport::schema`]).
    ///
    /// Everything except the `metrics.sched`, `metrics.dist`, and
    /// `metrics.timings_ns` sections is byte-identical across `--jobs`
    /// counts; comparing cache-warm against cache-cold runs additionally
    /// excludes `metrics.work` and `cache`.
    pub fn report_json(&self, result: &AnalysisResult) -> Json {
        let report = &result.report;
        self.report_document(
            report.schema(),
            report.exit_code(),
            result.report_json.clone(),
            &result.metrics,
        )
    }

    /// The report document's one layout, shared by analyzed and replayed
    /// runs.
    pub(crate) fn report_document(
        &self,
        schema: &str,
        exit_code: u8,
        report: Json,
        metrics: &MetricsSnapshot,
    ) -> Json {
        let budget = &self.config.budget;
        let mut budget_json = Json::obj();
        budget_json.set("solver_steps", budget.solver_steps);
        budget_json.set("fixpoint_rounds", budget.fixpoint_rounds);
        budget_json.set("max_function_insts", budget.max_function_insts);
        budget_json.set("deadline_ms", budget.deadline_ms);
        let mut cache = Json::obj();
        for (key, metric) in [("hits", "summary.cache_hits"), ("misses", "summary.cache_misses")] {
            cache.set(key, metrics.work.get(metric).copied().unwrap_or(0));
        }

        let mut o = Json::obj();
        o.set("schema", schema);
        o.set("exit_code", u64::from(exit_code));
        o.set("report", report);
        o.set("budget", budget_json);
        o.set("cache", cache);
        o.set("metrics", metrics.to_json());
        o
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
    /// `phase.lower` and `phase.ssa`; dropping the AST and the module is
    /// `phase.drop`, and building the report's JSON form is
    /// `report.render_ns`.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError`] when the source fails to parse or lower.
    pub fn analyze_program(
        &self,
        main_name: &str,
        fs: &VirtualFs,
    ) -> Result<AnalysisResult, AnalysisError> {
        Ok(self.run(main_name, fs, &engine::SccTable::new())?.0)
    }

    /// [`Analyzer::analyze_program`] over `prior`, the summary table of an
    /// earlier run: returns the result with this run's own table (empty
    /// after a context-sensitive run, which uses no summaries).
    ///
    /// Failures inside the phases do not abort the run: contained panics
    /// and exhausted budgets degrade the affected scopes conservatively
    /// and surface as [`Degradation`] entries on the report (see
    /// [`AnalysisReport::exit_code`]).
    pub(crate) fn run(
        &self,
        main_name: &str,
        fs: &VirtualFs,
        prior: &engine::SccTable,
    ) -> Result<(AnalysisResult, engine::SccTable), AnalysisError> {
        // The run's one wall-clock deadline (the only machine-dependent
        // budget; determinism tests never set it), counted from the start
        // of the run: the frontend's time counts against it too.
        let deadline = self
            .config
            .budget
            .deadline_ms
            .map(|ms| std::time::Instant::now() + std::time::Duration::from_millis(ms));
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
        let (report, sccs) = self.run_phases(&module, &mut diags, &metrics, deadline, prior);
        // The AST and the module are dropped under one span of their own,
        // together: dropping the AST right after lowering made cold checks
        // of the benchmark corpus 15% slower on a 2-CPU host.
        metrics.time("phase.drop", || drop((parsed.unit, module)));
        if diags.has_errors() {
            return Err(AnalysisError::Parse { diags, sources });
        }
        // The one place spans resolve, while the sources are alive: the
        // source map drops with this frame.
        let report_json = metrics.time("report.render_ns", || report.to_json(&sources, &diags));
        Ok((AnalysisResult { report, report_json, metrics: metrics.snapshot() }, sccs))
    }

    /// The three analysis phases over the lowered module, recording into
    /// `metrics` (a fresh registry per run) and returning the run's summary
    /// table with the report.
    fn run_phases(
        &self,
        module: &Module,
        diags: &mut Diagnostics,
        metrics: &Metrics,
        deadline: Option<std::time::Instant>,
        prior: &engine::SccTable,
    ) -> (AnalysisReport, engine::SccTable) {
        metrics.add_many(Class::Counter, &[("module.functions", module.functions.len() as u64)]);
        // Region model + static InitCheck (§3.2.1).
        let regions = metrics.time("phase.regions", || regions::extract_regions(module, diags));
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
                metrics,
            )
        });
        // Phase 3: warnings + critical-data value flow.
        let pt = metrics.time("phase.points_to", || PointsTo::analyze(module));
        let (results, sccs) = metrics.time("phase.value_flow", || match self.config.engine {
            Engine::ContextSensitive => {
                let results = taint::analyze_taint(
                    module,
                    &regions,
                    &shm,
                    &pt,
                    &cfgs,
                    &self.config,
                    &table,
                    deadline,
                    metrics,
                );
                (results, engine::SccTable::new())
            }
            Engine::Summary => summary::analyze_summaries(
                module,
                &regions,
                &shm,
                &pt,
                &callgraph,
                &cfgs,
                &self.config,
                &table,
                prior,
                deadline,
                metrics,
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
                    name: r.name.to_string(),
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
        (report, sccs)
    }
}
