//! Report model: everything SafeFlow tells the developer.
//!
//! Three result categories, exactly as the paper's evaluation counts them
//! (Table 1):
//!
//! * **warnings** — unmonitored reads of non-core shared memory ("a warning
//!   is reported for each unsafe access to shared memory, without any false
//!   positives or false negatives", §3.3);
//! * **errors** — critical data that is data- or control-dependent on an
//!   unmonitored non-core value; control-only dependencies are flagged as
//!   false-positive candidates needing manual triage via the value-flow
//!   path (§3.4.1, §4);
//! * **violations** — breaches of the language restrictions P1–P3/A1–A2
//!   (§3.2).

use crate::policy::LabelTable;
use crate::regions::{RegionId, RegionMap};
use crate::taint::TaintVal;
use safeflow_syntax::source::SourceMap;
use safeflow_syntax::span::Span;
use safeflow_syntax::Diagnostics;
use safeflow_util::json::Json;
use safeflow_util::Symbol;
use std::collections::btree_map::{BTreeMap, Entry};
use std::fmt;
use std::sync::Arc;

/// One step in a value-flow path (newest first when linked).
#[derive(Debug, Clone)]
pub struct FlowNode {
    /// What happened at this step (e.g. "read of non-core region
    /// `noncoreCtrl`").
    pub what: String,
    /// Where.
    pub span: Span,
    /// Previous step (towards the taint source).
    pub prev: Option<Arc<FlowNode>>,
}

impl FlowNode {
    /// Creates a source node.
    pub fn source(what: impl Into<String>, span: Span) -> Arc<FlowNode> {
        Arc::new(FlowNode { what: what.into(), span, prev: None })
    }

    /// Creates a node chained onto `prev`.
    pub fn step(what: impl Into<String>, span: Span, prev: Arc<FlowNode>) -> Arc<FlowNode> {
        Arc::new(FlowNode { what: what.into(), span, prev: Some(prev) })
    }

    /// The path from the source to this node, oldest first.
    pub fn path(&self) -> Vec<(String, Span)> {
        let mut out = Vec::new();
        let mut cur = Some(self);
        while let Some(n) = cur {
            out.push((n.what.clone(), n.span));
            cur = n.prev.as_deref();
        }
        out.reverse();
        out
    }
}

/// An unmonitored read of a non-core shared-memory region.
#[derive(Debug, Clone)]
pub struct Warning {
    /// Function containing the access.
    pub function: String,
    /// The non-core region accessed.
    pub region: RegionId,
    /// Region name (pointer variable it was declared through).
    pub region_name: String,
    /// Location of the access.
    pub span: Span,
    /// The policy label the read carries — `None` under the default
    /// two-point policy (which keeps v1 reports byte-identical).
    pub label: Option<String>,
}

/// How critical data depends on an unsafe value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DependencyKind {
    /// Pure control dependence: the unsafe value only steered which path
    /// computed the critical data. These are the paper's false-positive
    /// candidates (§3.4.1, all observed FPs in §4 were of this kind).
    ControlOnly,
    /// Data dependence (possibly alongside control dependence).
    Data,
}

/// Critical data depending on an unmonitored non-core value.
#[derive(Debug, Clone)]
pub struct ErrorDependency {
    /// The asserted variable (or `function:arg` for implicit critical
    /// call arguments like `kill:0`).
    pub critical: String,
    /// Function containing the assertion.
    pub function: String,
    /// Location of the assertion / critical call.
    pub span: Span,
    /// Data vs control-only.
    pub kind: DependencyKind,
    /// The policy label that leaked past the sink's clearance — `None`
    /// under the default two-point policy.
    pub label: Option<String>,
    /// Value-flow path from the unmonitored access to the critical datum
    /// (the triage aid the paper's users inspected manually).
    pub flow: Option<Arc<FlowNode>>,
}

/// An engine's findings, collected under the one finding rule both phase-3
/// engines share, whole runs and degraded scopes alike:
///
/// * a read of a non-core region at a label mask other than ⊥ is a
///   warning;
/// * a sink reached by a [`TaintVal`] leaks what lies above its clearance:
///   the error is `Data` if any explicit flow leaks, `ControlOnly`
///   otherwise, and its mask is the join of everything that leaks.
///
/// Findings at one site — (function, span, region) for a warning,
/// (function, span, critical) for an error — merge: their masks join and
/// the worst kind wins. The site keeps the flow of the last finding that
/// raised its kind, or at the worst kind its mask, so the flow shows a
/// source of the site's label whenever one source carries it all. The
/// label is named once, by [`Findings::into_parts`], so it does not depend
/// on which finding came first. Both lists come out in key order.
#[derive(Debug, Default)]
pub(crate) struct Findings {
    warnings: BTreeMap<Site<RegionId>, (Span, u64)>,
    errors: BTreeMap<Site<&'static str>, (ErrorDependency, u64)>,
}

/// A finding's site: its function, its span's bounds, and what it names,
/// names as strings so that sites sort by name, never by symbol id.
type Site<T> = (&'static str, u32, u32, T);

impl Findings {
    /// Records a read of `region` at label `mask` in `function`.
    pub(crate) fn read(&mut self, function: Symbol, region: RegionId, span: Span, mask: u64) {
        if mask != 0 {
            let key = (function.as_str(), span.lo, span.hi, region);
            self.warnings.entry(key).or_insert((span, 0)).1 |= mask;
        }
    }

    /// Records that `val` reaches the sink `critical` at `span` in
    /// `function`, whose clearance is `clearance`. `flow` is built only if
    /// this finding's flow is the one its site keeps.
    pub(crate) fn reach(
        &mut self,
        function: Symbol,
        span: Span,
        critical: Symbol,
        val: TaintVal,
        clearance: u64,
        flow: impl FnOnce() -> Option<Arc<FlowNode>>,
    ) {
        let (explicit, implicit) = (val.explicit() & !clearance, val.implicit() & !clearance);
        let kind = match (explicit, implicit) {
            (0, 0) => return,
            (0, _) => DependencyKind::ControlOnly,
            _ => DependencyKind::Data,
        };
        let mask = explicit | implicit;
        self.add_error(function.as_str(), span, critical.as_str(), kind, mask, flow);
    }

    /// Joins one error of `kind` at `mask` into its site.
    fn add_error(
        &mut self,
        function: &'static str,
        span: Span,
        critical: &'static str,
        kind: DependencyKind,
        mask: u64,
        flow: impl FnOnce() -> Option<Arc<FlowNode>>,
    ) {
        match self.errors.entry((function, span.lo, span.hi, critical)) {
            Entry::Occupied(mut site) => {
                let (e, joined) = site.get_mut();
                if kind > e.kind || (kind == e.kind && mask & !*joined != 0) {
                    (e.span, e.kind, e.flow) = (span, kind, flow());
                }
                *joined |= mask;
            }
            Entry::Vacant(site) => {
                let (critical, function) = (critical.to_string(), function.to_string());
                let flow = flow();
                site.insert((
                    ErrorDependency { critical, function, span, kind, label: None, flow },
                    mask,
                ));
            }
        }
    }

    /// Merges `other`'s findings into these, as if each had been recorded
    /// here in `other`'s key order.
    pub(crate) fn merge(&mut self, other: &Findings) {
        for (&key, &(span, mask)) in &other.warnings {
            self.warnings.entry(key).or_insert((span, 0)).1 |= mask;
        }
        for (&(function, _, _, critical), (e, mask)) in &other.errors {
            self.add_error(function, e.span, critical, e.kind, *mask, || e.flow.clone());
        }
    }

    /// The number of warning sites and of error sites.
    pub(crate) fn len(&self) -> (usize, usize) {
        (self.warnings.len(), self.errors.len())
    }

    /// The warnings and the errors, each in key order, labeled under
    /// `table`: no label under the default two-point policy (which keeps
    /// v1 reports byte-identical), else the name of the site's mask.
    pub(crate) fn into_parts(
        self,
        table: &LabelTable,
        regions: &RegionMap,
    ) -> (Vec<Warning>, Vec<ErrorDependency>) {
        let label = |mask: u64| (!table.is_default()).then(|| table.name_of(mask));
        let warnings = self.warnings.into_iter().map(|((function, _, _, region), (span, mask))| {
            let region_name = regions.region(region).name.to_string();
            Warning {
                function: function.to_string(),
                region,
                region_name,
                span,
                label: label(mask),
            }
        });
        let errors =
            self.errors.into_values().map(|(e, mask)| ErrorDependency { label: label(mask), ..e });
        (warnings.collect(), errors.collect())
    }
}

/// Which restriction a violation breaks. The derived order (`P1 < P2 <
/// P3 < A1 < A2`) is part of the canonical report order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Restriction {
    /// Shared memory deallocated before the end of `main`.
    P1,
    /// Address of a shared-memory pointer taken / pointer stored outside a
    /// named variable.
    P2,
    /// Incompatible cast of a shared-memory pointer (or cast to integer).
    P3,
    /// Array index not provably within bounds.
    A1,
    /// Loop-indexed shared array with non-affine index/bounds.
    A2,
}

impl fmt::Display for Restriction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Restriction::P1 => "P1",
            Restriction::P2 => "P2",
            Restriction::P3 => "P3",
            Restriction::A1 => "A1",
            Restriction::A2 => "A2",
        };
        write!(f, "{s}")
    }
}

/// A breach of the shared-memory language restrictions.
#[derive(Debug, Clone)]
pub struct RestrictionViolation {
    /// Which rule.
    pub restriction: Restriction,
    /// Function containing the violation.
    pub function: String,
    /// Explanation.
    pub message: String,
    /// Location.
    pub span: Span,
}

/// Why part of an analysis degraded (the paper's conservatism contract
/// extended to the tool's own failures: degrade loudly, never silently).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DegradationKind {
    /// A resource budget ran out; the affected scope was treated
    /// conservatively (facts unknown-unsafe, obligations unproven).
    BudgetExhausted,
    /// The analyzer itself panicked while analyzing the scope; its results
    /// degraded to conservative top and the fault is surfaced here.
    InternalError,
}

/// A note that some functions were analyzed in degraded (conservative)
/// mode. Findings attributed to these functions may be missing or
/// over-approximate; findings elsewhere are unaffected or strictly more
/// conservative.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Degradation {
    /// Internal error vs budget exhaustion.
    pub kind: DegradationKind,
    /// The affected functions, sorted by name.
    pub functions: Vec<String>,
    /// Deterministic detail (panic message, exhausted bound, ...).
    pub detail: String,
}

/// Summary of one shared-memory region for the report.
#[derive(Debug, Clone)]
pub struct RegionInfo {
    /// Region id.
    pub id: RegionId,
    /// Pointer variable name.
    pub name: String,
    /// Total byte size.
    pub size: u64,
    /// Whether non-core components may write it.
    pub noncore: bool,
    /// Constant byte offset within its segment, when the initializer was
    /// statically evaluable.
    pub offset: Option<i64>,
}

/// The full output of a SafeFlow run.
#[derive(Debug, Clone, Default)]
pub struct AnalysisReport {
    /// Shared-memory regions discovered from `shminit` annotations.
    pub regions: Vec<RegionInfo>,
    /// Unmonitored non-core reads.
    pub warnings: Vec<Warning>,
    /// Critical-data dependencies.
    pub errors: Vec<ErrorDependency>,
    /// P1–P3/A1–A2 violations.
    pub violations: Vec<RestrictionViolation>,
    /// Results of the static `InitCheck` (region overlap) verification.
    pub init_check: Vec<String>,
    /// Number of SafeFlow annotation facts bound during the run.
    pub annotation_count: usize,
    /// Phase-3 work metric: distinct `(function, context)` analyses for the
    /// context-sensitive engine, or function summaries computed for the
    /// summary engine (the §3.3 complexity trade-off, measured).
    pub contexts_analyzed: usize,
    /// Scopes analyzed in degraded (conservative) mode; empty on a clean
    /// run. A non-empty list means "verified as far as possible", not
    /// "verified safe" — the CLI maps it to a distinct exit code.
    pub degradations: Vec<Degradation>,
    /// Whether the run used a non-default label policy. Drives the JSON
    /// schema choice: labeled runs emit `safeflow-report-v2` (per-finding
    /// `label` and `flow_kind` members); default-policy runs keep emitting
    /// `safeflow-report-v1` byte-for-byte.
    pub labeled: bool,
}

impl AnalysisReport {
    /// Errors that are data dependencies (definite).
    pub fn data_errors(&self) -> impl Iterator<Item = &ErrorDependency> {
        self.errors.iter().filter(|e| e.kind == DependencyKind::Data)
    }

    /// Errors that are control-only (false-positive candidates, paper §4).
    pub fn control_only_errors(&self) -> impl Iterator<Item = &ErrorDependency> {
        self.errors.iter().filter(|e| e.kind == DependencyKind::ControlOnly)
    }

    /// Whether the component passed with no findings at all — and no
    /// degradations: a degraded run is "verified as far as possible",
    /// never "verified safe".
    pub fn is_clean(&self) -> bool {
        self.warnings.is_empty()
            && self.errors.is_empty()
            && self.violations.is_empty()
            && self.degradations.is_empty()
    }

    /// The JSON schema identifier this report's [`AnalysisReport::to_json`]
    /// document conforms to. v1 is frozen; v2 is a strict superset adding
    /// per-finding `label` and `flow_kind` members. A report is v2 exactly
    /// when a non-default policy (declared labels, declassifiers, or a
    /// non-default implicit-flow mode) was in effect.
    pub fn schema(&self) -> &'static str {
        if self.labeled {
            "safeflow-report-v2"
        } else {
            "safeflow-report-v1"
        }
    }

    /// The documented CLI exit code for this report:
    ///
    /// | code | meaning |
    /// |------|---------|
    /// | 0 | clean — verified safe |
    /// | 1 | warnings only |
    /// | 2 | errors or restriction violations |
    /// | 3 | internal error contained — results incomplete |
    /// | 4 | budget exhausted — verified as far as the budget allowed |
    ///
    /// Degradations dominate findings (3 > 4 > 2 > 1 > 0): a degraded
    /// report may be missing findings, so "there are errors" is less
    /// informative than "the run did not complete cleanly". The rendered
    /// report still lists every finding either way.
    pub fn exit_code(&self) -> u8 {
        if self.degradations.iter().any(|d| d.kind == DegradationKind::InternalError) {
            3
        } else if !self.degradations.is_empty() {
            4
        } else if !self.errors.is_empty() || !self.violations.is_empty() {
            2
        } else if !self.warnings.is_empty() {
            1
        } else {
            0
        }
    }

    /// Sorts every finding list into the canonical order: `(file, span,
    /// kind, function, detail)`. The analyzer calls this before returning,
    /// so rendered reports are byte-identical regardless of worker count,
    /// scheduling, or cache state. Stable sorts, so equal keys keep their
    /// producer order.
    pub fn canonicalize(&mut self) {
        self.warnings.sort_by(|a, b| {
            span_key(a.span)
                .cmp(&span_key(b.span))
                .then_with(|| a.region.cmp(&b.region))
                .then_with(|| a.function.cmp(&b.function))
        });
        self.violations.sort_by(|a, b| {
            span_key(a.span)
                .cmp(&span_key(b.span))
                .then_with(|| a.restriction.cmp(&b.restriction))
                .then_with(|| a.function.cmp(&b.function))
                .then_with(|| a.message.cmp(&b.message))
        });
        self.errors.sort_by(|a, b| {
            span_key(a.span)
                .cmp(&span_key(b.span))
                .then_with(|| a.critical.cmp(&b.critical))
                .then_with(|| a.function.cmp(&b.function))
                .then_with(|| a.kind.cmp(&b.kind))
        });
        for d in &mut self.degradations {
            d.functions.sort();
            d.functions.dedup();
        }
        self.degradations.sort_by(|a, b| {
            a.kind
                .cmp(&b.kind)
                .then_with(|| a.functions.cmp(&b.functions))
                .then_with(|| a.detail.cmp(&b.detail))
        });
        self.degradations.dedup();
    }

    /// Renders the findings as a JSON object with a stable schema and
    /// ordering. The report is canonicalized before the analyzer returns
    /// it, so this document is byte-identical for any worker count or
    /// cache state. It is the one place a report's spans are resolved:
    /// the text report ([`render_text`]) and the `--dot` graphs are drawn
    /// from it. When `diags` is non-empty, a `diagnostics` array holding
    /// each frontend diagnostic's rendered block closes the object.
    pub fn to_json(&self, sources: &SourceMap, diags: &Diagnostics) -> Json {
        let loc = |span: Span| sources.describe(span);
        let mut o = Json::obj();
        let mut summary = Json::obj();
        summary.set("regions", self.regions.len());
        summary.set("warnings", self.warnings.len());
        summary.set("errors", self.errors.len());
        summary.set("data_errors", self.data_errors().count());
        summary.set("control_only_errors", self.control_only_errors().count());
        summary.set("violations", self.violations.len());
        summary.set("degradations", self.degradations.len());
        summary.set("annotations", self.annotation_count);
        summary.set("contexts_analyzed", self.contexts_analyzed);
        o.set("summary", summary);
        o.set(
            "regions",
            self.regions
                .iter()
                .map(|r| {
                    let mut j = Json::obj();
                    j.set("name", r.name.as_str());
                    j.set("size", r.size);
                    j.set("noncore", r.noncore);
                    j.set("offset", r.offset.map(Json::Int));
                    j
                })
                .collect::<Vec<_>>(),
        );
        o.set(
            "init_check",
            self.init_check.iter().map(|c| Json::from(c.as_str())).collect::<Vec<_>>(),
        );
        o.set(
            "warnings",
            self.warnings
                .iter()
                .map(|w| {
                    let mut j = Json::obj();
                    j.set("function", w.function.as_str());
                    j.set("region", w.region_name.as_str());
                    if self.labeled {
                        j.set("label", w.label.as_deref().map(Json::from));
                    }
                    j.set("location", loc(w.span));
                    j
                })
                .collect::<Vec<_>>(),
        );
        o.set(
            "violations",
            self.violations
                .iter()
                .map(|v| {
                    let mut j = Json::obj();
                    j.set("restriction", v.restriction.to_string());
                    j.set("function", v.function.as_str());
                    j.set("message", v.message.as_str());
                    j.set("location", loc(v.span));
                    j
                })
                .collect::<Vec<_>>(),
        );
        o.set(
            "errors",
            self.errors
                .iter()
                .map(|e| {
                    let mut j = Json::obj();
                    j.set("critical", e.critical.as_str());
                    j.set("function", e.function.as_str());
                    j.set(
                        "kind",
                        match e.kind {
                            DependencyKind::Data => "data",
                            DependencyKind::ControlOnly => "control-only",
                        },
                    );
                    if self.labeled {
                        j.set(
                            "flow_kind",
                            match e.kind {
                                DependencyKind::Data => "explicit",
                                DependencyKind::ControlOnly => "implicit",
                            },
                        );
                        j.set("label", e.label.as_deref().map(Json::from));
                    }
                    j.set("location", loc(e.span));
                    j.set(
                        "flow",
                        e.flow
                            .as_ref()
                            .map(|f| {
                                f.path()
                                    .into_iter()
                                    .map(|(what, span)| {
                                        let mut n = Json::obj();
                                        n.set("what", what);
                                        n.set("location", loc(span));
                                        n
                                    })
                                    .collect::<Vec<_>>()
                            })
                            .unwrap_or_default(),
                    );
                    j
                })
                .collect::<Vec<_>>(),
        );
        o.set(
            "degradations",
            self.degradations
                .iter()
                .map(|d| {
                    let mut j = Json::obj();
                    j.set(
                        "kind",
                        match d.kind {
                            DegradationKind::BudgetExhausted => "budget-exhausted",
                            DegradationKind::InternalError => "internal-error",
                        },
                    );
                    j.set(
                        "functions",
                        d.functions.iter().map(|f| Json::from(f.as_str())).collect::<Vec<_>>(),
                    );
                    j.set("detail", d.detail.as_str());
                    j
                })
                .collect::<Vec<_>>(),
        );
        if !diags.is_empty() {
            o.set(
                "diagnostics",
                diags.iter().map(|d| Json::from(d.render(sources))).collect::<Vec<_>>(),
            );
        }
        o
    }
}

/// Renders the `report` subtree of a report document (an
/// [`AnalysisReport::to_json`] value, live or replayed from the store) as
/// the human-readable text: the summary line, any degradations, regions,
/// init-check notes and findings, then the frontend diagnostics.
pub fn render_text(report: &Json) -> String {
    let count = |key: &str| {
        report.get("summary").and_then(|s| s.get(key)).map(Json::render).unwrap_or_default()
    };
    let mut out = format!(
        "SafeFlow report: {} region(s), {} warning(s), {} error(s) ({} data, {} control-only), {} restriction violation(s)\n",
        count("regions"),
        count("warnings"),
        count("errors"),
        count("data_errors"),
        count("control_only_errors"),
        count("violations"),
    );
    let degradations = report.arr_member("degradations");
    if !degradations.is_empty() {
        out.push_str(&format!(
            "  DEGRADED RUN: {} scope(s) analyzed conservatively — \
             findings below are \"as far as possible\", not \"verified safe\"\n",
            degradations.len()
        ));
        for d in degradations {
            let functions: Vec<&str> =
                d.arr_member("functions").iter().filter_map(Json::as_str).collect();
            out.push_str(&format!(
                "    {}: {} (functions: {})\n",
                match d.str_member("kind") {
                    "internal-error" => "internal error (contained)",
                    _ => "budget exhausted",
                },
                d.str_member("detail"),
                if functions.is_empty() { "-".to_string() } else { functions.join(", ") },
            ));
        }
    }
    for r in report.arr_member("regions") {
        out.push_str(&format!(
            "  region `{}`: {} bytes, {}{}\n",
            r.str_member("name"),
            r.get("size").map(Json::render).unwrap_or_default(),
            if r.get("noncore") == Some(&Json::Bool(true)) { "non-core" } else { "core" },
            match r.get("offset") {
                Some(o @ (Json::Int(_) | Json::UInt(_))) =>
                    format!(", segment offset {}", o.render()),
                _ => String::new(),
            }
        ));
    }
    for c in report.arr_member("init_check").iter().filter_map(Json::as_str) {
        out.push_str(&format!("  init-check: {c}\n"));
    }
    for w in report.arr_member("warnings") {
        let (read, label) = match w.get("label") {
            Some(Json::Str(label)) => ("read", format!(" (label `{label}`)")),
            _ => ("unmonitored read", String::new()),
        };
        out.push_str(&format!(
            "  warning: {read} of non-core region `{}`{label} in `{}` [{}]\n",
            w.str_member("region"),
            w.str_member("function"),
            w.str_member("location")
        ));
    }
    for v in report.arr_member("violations") {
        out.push_str(&format!(
            "  violation [{}]: {} in `{}` [{}]\n",
            v.str_member("restriction"),
            v.str_member("message"),
            v.str_member("function"),
            v.str_member("location")
        ));
    }
    for e in report.arr_member("errors") {
        let source = match e.get("label") {
            Some(Json::Str(label)) => format!("value labeled `{label}`"),
            _ => "unmonitored non-core value".to_string(),
        };
        out.push_str(&format!(
            "  ERROR: critical `{}` in `{}` {} on {source} [{}]\n",
            e.str_member("critical"),
            e.str_member("function"),
            match e.str_member("kind") {
                "data" => "is data-dependent",
                _ => "is control-dependent (false-positive candidate)",
            },
            e.str_member("location")
        ));
        for (i, step) in e.arr_member("flow").iter().enumerate() {
            out.push_str(&format!(
                "      {}{} [{}]\n",
                if i == 0 { "source: " } else { "  then: " },
                step.str_member("what"),
                step.str_member("location")
            ));
        }
    }
    let diagnostics: Vec<&str> =
        report.arr_member("diagnostics").iter().filter_map(Json::as_str).collect();
    if !diagnostics.is_empty() {
        out.push_str(&diagnostics.join("\n"));
        out.push('\n');
    }
    out
}

fn span_key(s: Span) -> (u32, u32, u32) {
    (s.file.0, s.lo, s.hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonicalize_sorts_by_file_span_kind() {
        let sp = |lo: u32| Span::new(safeflow_syntax::span::FileId(0), lo, lo + 1);
        let mk = |r: Restriction, lo: u32, f: &str| RestrictionViolation {
            restriction: r,
            function: f.into(),
            message: String::new(),
            span: sp(lo),
        };
        let mut rep = AnalysisReport {
            violations: vec![
                mk(Restriction::A1, 20, "b"),
                mk(Restriction::P2, 5, "a"),
                mk(Restriction::P1, 5, "a"),
                mk(Restriction::A2, 20, "b"),
            ],
            ..AnalysisReport::default()
        };
        rep.canonicalize();
        let order: Vec<(u32, Restriction)> =
            rep.violations.iter().map(|v| (v.span.lo, v.restriction)).collect();
        assert_eq!(
            order,
            vec![
                (5, Restriction::P1),
                (5, Restriction::P2),
                (20, Restriction::A1),
                (20, Restriction::A2),
            ]
        );
    }

    #[test]
    fn flow_path_orders_source_first() {
        let a = FlowNode::source("read region", Span::dummy());
        let b = FlowNode::step("assigned to x", Span::dummy(), a);
        let c = FlowNode::step("returned from decision", Span::dummy(), b);
        let path = c.path();
        assert_eq!(path.len(), 3);
        assert_eq!(path[0].0, "read region");
        assert_eq!(path[2].0, "returned from decision");
    }

    #[test]
    fn report_classification() {
        let mut r = AnalysisReport::default();
        assert!(r.is_clean());
        r.errors.push(ErrorDependency {
            critical: "output".into(),
            function: "main".into(),
            span: Span::dummy(),
            kind: DependencyKind::Data,
            label: None,
            flow: None,
        });
        r.errors.push(ErrorDependency {
            critical: "mode".into(),
            function: "main".into(),
            span: Span::dummy(),
            kind: DependencyKind::ControlOnly,
            label: None,
            flow: None,
        });
        assert_eq!(r.data_errors().count(), 1);
        assert_eq!(r.control_only_errors().count(), 1);
        assert!(!r.is_clean());
    }

    #[test]
    fn exit_codes_follow_severity_order() {
        let mut r = AnalysisReport::default();
        assert_eq!(r.exit_code(), 0);
        r.warnings.push(Warning {
            function: "main".into(),
            region: RegionId(0),
            region_name: "n".into(),
            span: Span::dummy(),
            label: None,
        });
        assert_eq!(r.exit_code(), 1);
        r.errors.push(ErrorDependency {
            critical: "output".into(),
            function: "main".into(),
            span: Span::dummy(),
            kind: DependencyKind::Data,
            label: None,
            flow: None,
        });
        assert_eq!(r.exit_code(), 2);
        r.degradations.push(Degradation {
            kind: DegradationKind::BudgetExhausted,
            functions: vec!["f".into()],
            detail: "solver step budget".into(),
        });
        assert_eq!(r.exit_code(), 4);
        r.degradations.push(Degradation {
            kind: DegradationKind::InternalError,
            functions: vec!["g".into()],
            detail: "panic".into(),
        });
        assert_eq!(r.exit_code(), 3);
        assert!(!r.is_clean());
    }

    #[test]
    fn degradations_render_and_canonicalize() {
        let mut r = AnalysisReport::default();
        r.degradations.push(Degradation {
            kind: DegradationKind::InternalError,
            functions: vec!["zeta".into(), "alpha".into(), "alpha".into()],
            detail: "injected".into(),
        });
        r.degradations.push(Degradation {
            kind: DegradationKind::BudgetExhausted,
            functions: vec!["beta".into()],
            detail: "rounds".into(),
        });
        r.canonicalize();
        assert_eq!(r.degradations[0].kind, DegradationKind::BudgetExhausted);
        assert_eq!(r.degradations[1].functions, vec!["alpha".to_string(), "zeta".to_string()]);
        let text = render_text(&r.to_json(&SourceMap::new(), &Diagnostics::new()));
        assert!(text.contains("DEGRADED RUN: 2 scope(s)"));
        assert!(text.contains("internal error (contained): injected (functions: alpha, zeta)"));
        assert!(text.contains("budget exhausted: rounds (functions: beta)"));
    }

    #[test]
    fn render_mentions_everything() {
        let mut r = AnalysisReport::default();
        r.regions.push(RegionInfo {
            id: RegionId(0),
            name: "noncoreCtrl".into(),
            size: 12,
            noncore: true,
            offset: Some(12),
        });
        r.warnings.push(Warning {
            function: "main".into(),
            region: RegionId(0),
            region_name: "noncoreCtrl".into(),
            span: Span::dummy(),
            label: None,
        });
        let text = render_text(&r.to_json(&SourceMap::new(), &Diagnostics::new()));
        assert!(text.contains("1 warning"));
        assert!(text.contains("noncoreCtrl"));
        assert!(text.contains("non-core"));
    }
}
