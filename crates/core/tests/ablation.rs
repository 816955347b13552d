//! The §3.4.1 ablation: what happens when control-dependence findings
//! are dropped.
//!
//! The paper keeps control dependence despite its false positives because
//! dropping it also drops *real* findings — Figure 2's own error is a
//! control dependency ("the control dependence on the non-core
//! configuration data reports an erroneous dependency" is the FP side;
//! `decision`'s gated return is the true-positive side). This test
//! quantifies both directions on the corpus. The engines always track
//! control dependence; the ablation is the `TaintOnly` implicit-flow mode,
//! which drops control-only findings from the report.

use safeflow::{AnalysisConfig, Analyzer, DependencyKind, Engine, ImplicitFlowMode};

fn config_without_control_deps(engine: Engine) -> AnalysisConfig {
    AnalysisConfig::builder()
        .engine(engine)
        .implicit_flow(ImplicitFlowMode::TaintOnly)
        .build_config()
}

/// Disabling control dependence removes every corpus false positive
/// (the paper: "All false positives returned in our tests were due to
/// control dependence on non-core values").
#[test]
fn without_control_deps_corpus_has_zero_false_positives() {
    for engine in [Engine::ContextSensitive, Engine::Summary] {
        for system in safeflow_corpus::systems() {
            let result = Analyzer::new(config_without_control_deps(engine))
                .analyze_source(system.core_file, system.core_source)
                .unwrap();
            // Every remaining error must be a seeded (real) defect.
            for e in &result.report.errors {
                assert!(
                    system.defects.iter().any(|d| d.critical == e.critical),
                    "{} ({engine:?}): `{}` survived without control deps but is not a defect:\n{}",
                    system.name,
                    e.critical,
                    result.render()
                );
                assert_eq!(e.kind, DependencyKind::Data);
            }
            // And all the *data*-dependency defects are still found.
            let data_defects = ["kill:arg0", "uOut", "uFinal"];
            for d in &system.defects {
                if data_defects.contains(&d.critical) {
                    assert!(
                        result.report.errors.iter().any(|e| e.critical == d.critical),
                        "{} ({engine:?}): data defect `{}` must survive the ablation",
                        system.name,
                        d.critical
                    );
                }
            }
            // Warnings are untouched: they never depended on control flow.
            assert_eq!(result.report.warnings.len(), system.paper.warnings);
        }
    }
}

/// ... but the ablation also loses a real finding: Figure 2's `output`
/// error is a pure control dependency and disappears — which is exactly why
/// the paper accepts the false positives.
#[test]
fn without_control_deps_figure2_error_is_missed() {
    let with = Analyzer::new(AnalysisConfig::default())
        .analyze_source("fig2.c", safeflow_corpus::figure2_example())
        .unwrap();
    assert!(
        with.report.errors.iter().any(|e| e.critical == "output"),
        "baseline finds the Figure 2 error"
    );

    let without = Analyzer::new(config_without_control_deps(Engine::ContextSensitive))
        .analyze_source("fig2.c", safeflow_corpus::figure2_example())
        .unwrap();
    assert!(
        !without.report.errors.iter().any(|e| e.critical == "output"),
        "the ablation silently misses the paper's own worked example:\n{}",
        without.render()
    );
    // The unmonitored reads are still warned about, so the developer is
    // not completely blind — but the critical-data connection is lost.
    assert!(!without.report.warnings.is_empty());
}

/// The context-explosion guard: with a tiny `max_contexts`, analysis still
/// terminates and reports (possibly merged) findings without panicking.
#[test]
fn context_cap_degrades_gracefully() {
    use safeflow_corpus::synthetic::{generate_core, SyntheticParams};
    let src = generate_core(SyntheticParams { regions: 4, monitors: 4, depth: 8, branches: 2 });
    let cfg = AnalysisConfig { max_contexts: 2, ..AnalysisConfig::default() };
    let result = Analyzer::new(cfg).analyze_source("syn.c", &src).expect("analyzes");
    // Per-function cap: at most (cap + 1 merged) contexts per function.
    let n_functions = result.metrics.counters["module.functions"] as usize;
    assert!(
        result.report.contexts_analyzed <= n_functions * 3,
        "contexts {} vs {} functions",
        result.report.contexts_analyzed,
        n_functions
    );
    // Sound degradation: the unmonitored helper read still warns.
    assert!(!result.report.warnings.is_empty(), "{}", result.render());
}
