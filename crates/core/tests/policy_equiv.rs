//! Default-policy equivalence suite (ISSUE 10).
//!
//! The label-lattice policy engine must be invisible under the default
//! two-point policy: a `Policy` built explicitly through the new
//! `Policy::builder()` API (declaring nothing) must reproduce every
//! checked-in golden snapshot and every oracle-repro reference document
//! byte-for-byte, and must keep the `safeflow-report-v1` schema. Only a
//! policy that actually declares labels may switch reports to v2 — that
//! side is pinned by `make policy-smoke` and the mode-differentiation
//! test at the bottom.

use safeflow::{
    AnalysisConfig, Analyzer, Budget, DependencyKind, Engine, FaultPlan, FaultSite,
    ImplicitFlowMode, Policy,
};
use safeflow_corpus::{figure2_example, systems};
use safeflow_oracle::stripped;
use safeflow_syntax::VirtualFs;
use std::path::{Path, PathBuf};

/// An explicitly-built empty policy: same meaning as `Policy::default()`,
/// but constructed through the builder the way a downstream caller would.
fn explicit_default_policy() -> Policy {
    Policy::builder().implicit_flow(ImplicitFlowMode::ReportSeparately).build()
}

fn golden(name: &str) -> String {
    let path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(format!("{name}.txt"));
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("golden file {} must exist: {e}", path.display()))
}

/// Rebuilds golden.rs's two-engine snapshot string under a config whose
/// policy field was explicitly set to the builder-made empty policy.
fn two_engine_doc(file: &str, src: &str) -> String {
    let mut got = String::new();
    for (label, engine) in
        [("context-sensitive", Engine::ContextSensitive), ("summary", Engine::Summary)]
    {
        let mut config = AnalysisConfig::with_engine(engine).with_jobs(4);
        config.policy = explicit_default_policy();
        let rendered = Analyzer::new(config)
            .analyze_source(file, src)
            .unwrap_or_else(|e| panic!("{file} must analyze: {e}"))
            .render();
        got.push_str(&format!("==== engine: {label} ====\n{rendered}\n"));
    }
    got
}

#[test]
fn builder_default_equals_two_point() {
    let built = explicit_default_policy();
    assert_eq!(built, Policy::two_point());
    assert_eq!(built, Policy::default());
    assert!(built.is_default(), "builder with no declarations must stay the default policy");
}

#[test]
fn explicit_default_policy_reproduces_corpus_goldens() {
    for s in systems() {
        let name = match s.name {
            "IP" => "ip",
            "Double IP" => "double_ip",
            "Generic Simplex" => "generic",
            other => panic!("unexpected corpus system `{other}`"),
        };
        assert_eq!(
            two_engine_doc(s.core_file, s.core_source),
            golden(name),
            "explicit default policy must reproduce golden `{name}` byte-for-byte"
        );
    }
    assert_eq!(two_engine_doc("figure2.c", figure2_example()), golden("fig2"));
}

#[test]
fn explicit_default_policy_reproduces_degraded_goldens() {
    for (name, config) in [
        (
            "degraded_scc_panic",
            AnalysisConfig::with_engine(Engine::Summary)
                .with_fault_plan(FaultPlan::panic_at(FaultSite::SccAnalysis, 0))
                .with_jobs(4),
        ),
        (
            "degraded_tiny_solver_budget",
            AnalysisConfig::with_engine(Engine::Summary)
                .with_budget(Budget { solver_steps: Some(1), ..Budget::unlimited() }),
        ),
    ] {
        let mut config = config;
        config.policy = explicit_default_policy();
        let got = Analyzer::new(config)
            .analyze_source("figure2.c", figure2_example())
            .expect("fig2 analyzes")
            .render();
        assert_eq!(
            got,
            golden(name),
            "explicit default policy must reproduce degraded golden `{name}`"
        );
    }
}

#[test]
fn explicit_default_policy_reproduces_oracle_repro_references() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/oracle-repros");
    let mut repros: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("tests/oracle-repros exists")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "c"))
        .collect();
    repros.sort();
    assert!(repros.len() >= 5, "expected the checked-in repro suite, found {}", repros.len());
    for path in repros {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let src = std::fs::read_to_string(&path).expect("repro is UTF-8");
        let mut fs = VirtualFs::new();
        fs.add(name.as_str(), src.clone());

        let reference = Analyzer::new(AnalysisConfig::reference());
        let want = reference.analyze_program(&name, &fs).expect("repro analyzes");
        let want_doc = stripped(&reference.report_json(&want), false);

        let mut config = AnalysisConfig::reference();
        config.policy = explicit_default_policy();
        let explicit = Analyzer::new(config);
        let got = explicit.analyze_program(&name, &fs).expect("repro analyzes");
        let got_doc = stripped(&explicit.report_json(&got), false);

        assert_eq!(
            got_doc, want_doc,
            "explicit default policy must reproduce repro `{name}` reference byte-for-byte"
        );
        assert_eq!(want.report.schema(), "safeflow-report-v1");
        assert_eq!(got.report.schema(), "safeflow-report-v1");
    }
}

/// The checked-in mixed-criticality example must actually separate the
/// three implicit-flow modes: strict promotes the control-only finding,
/// taint-only drops it, report-separately keeps it as a distinct kind.
/// Byte-level pinning of the same runs lives in `make policy-smoke`.
#[test]
fn implicit_flow_modes_differ_on_mixed_criticality_example() {
    let path =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/policy/mixed_criticality.c");
    let src = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("example {} must exist: {e}", path.display()));

    let run = |mode: ImplicitFlowMode| {
        let config = AnalysisConfig {
            policy: Policy::builder().implicit_flow(mode).build(),
            ..AnalysisConfig::default()
        };
        Analyzer::new(config)
            .analyze_source("mixed_criticality.c", &src)
            .expect("example analyzes")
            .report
    };

    let strict = run(ImplicitFlowMode::Strict);
    let taint_only = run(ImplicitFlowMode::TaintOnly);
    let separate = run(ImplicitFlowMode::ReportSeparately);

    for report in [&strict, &taint_only, &separate] {
        assert_eq!(report.schema(), "safeflow-report-v2", "labeled policy must report v2");
        assert!(
            report.errors.iter().all(|e| e.label.is_some()),
            "every finding under a labeled policy carries its label"
        );
    }

    assert_eq!(strict.errors.len(), 3);
    assert!(
        strict.errors.iter().all(|e| e.kind == DependencyKind::Data),
        "strict mode promotes control-only dependencies to definite errors"
    );
    assert_eq!(taint_only.errors.len(), 2, "taint-only mode drops the control-only finding");
    assert_eq!(separate.errors.len(), 3);
    assert_eq!(
        separate.errors.iter().filter(|e| e.kind == DependencyKind::ControlOnly).count(),
        1,
        "report-separately keeps the control-only finding as its own kind"
    );
    assert_eq!(
        separate.errors.iter().filter(|e| e.label.as_deref() == Some("sensor_b")).count(),
        2,
        "the unmonitored and partially-declassified sensor_b flows both surface"
    );
}
