//! Fault-injection suite (ISSUE 2): degraded runs must be deterministic,
//! canonically ordered, and *strictly more conservative* than clean runs.
//!
//! The [`safeflow::FaultPlan`] hooks let these tests inject panics and
//! budget exhaustion at stable sites (SCC tasks, the Omega solver, the
//! summary cache) and then assert the degradation contract:
//!
//! * a contained panic never aborts the run and never changes with the
//!   worker count — rendered reports are byte-identical at `--jobs 1/4/8`;
//! * no injected fault drops a clean-run finding (monotone conservatism):
//!   every clean warning/error/violation either survives into the degraded
//!   report or its function is named by a degradation entry;
//!
//! That poisoned summary-table entries are never replayed across runs is
//! checked in the crate (`engine::tests::poisoned_cache_entries_are_never_reused`),
//! where a run's prior table can be handed over explicitly.
//!
//! Degraded-report *content* is pinned by golden snapshots under
//! `tests/golden/degraded_*.txt` (regenerate with `UPDATE_GOLDEN=1`).

use safeflow::{
    AnalysisConfig, Analyzer, Budget, DegradationKind, Engine, FaultKind, FaultPlan, FaultSite,
};
use safeflow_corpus::{figure2_example, systems};
use safeflow_util::prop::run_cases;
use std::collections::BTreeSet;
use std::path::PathBuf;

/// Every corpus program: (name, file, source).
fn corpus() -> Vec<(String, String, String)> {
    let mut programs: Vec<(String, String, String)> = systems()
        .into_iter()
        .map(|s| (s.name.to_string(), s.core_file.to_string(), s.core_source.to_string()))
        .collect();
    programs.push(("fig2".to_string(), "figure2.c".to_string(), figure2_example().to_string()));
    programs
}

fn render_with(config: &AnalysisConfig, file: &str, src: &str) -> (String, u8) {
    let result = Analyzer::new(config.clone())
        .analyze_source(file, src)
        .unwrap_or_else(|e| panic!("{file} must analyze: {e}"));
    (result.render(), result.report.exit_code())
}

// ---------------------------------------------------------------------------
// Determinism of degraded runs
// ---------------------------------------------------------------------------

#[test]
fn contained_panic_is_deterministic_across_thread_counts() {
    // Panic in *every* SCC task, then in every restriction check's solver
    // setup: the worst case for scheduling-dependent output, since all
    // containment paths of one pool run fire at once.
    for site in [FaultSite::SccAnalysis, FaultSite::Solver] {
        let plan = FaultPlan::new().with_fault(site, None, FaultKind::Panic);
        for (name, file, src) in corpus() {
            let base = AnalysisConfig::with_engine(Engine::Summary).with_fault_plan(plan.clone());
            let (want, code) = render_with(&base.clone().with_jobs(1), &file, &src);
            assert_eq!(code, 3, "{name} {site:?}: contained panic must exit 3");
            assert!(want.contains("DEGRADED RUN"), "{name} {site:?}:\n{want}");
            for jobs in [4usize, 8] {
                let (got, got_code) = render_with(&base.clone().with_jobs(jobs), &file, &src);
                assert_eq!(got_code, 3, "{name} {site:?} at --jobs {jobs}");
                assert_eq!(
                    got, want,
                    "{name} {site:?}: degraded report differs between --jobs 1 and --jobs {jobs}"
                );
            }
        }
    }
}

#[test]
fn seeded_fault_plans_are_deterministic_across_thread_counts() {
    for seed in [1u64, 7, 42] {
        let plan = FaultPlan::seeded(seed, 0.4);
        for (name, file, src) in corpus() {
            let base = AnalysisConfig::with_engine(Engine::Summary).with_fault_plan(plan.clone());
            let (want, _) = render_with(&base.clone().with_jobs(1), &file, &src);
            let (got, _) = render_with(&base.clone().with_jobs(8), &file, &src);
            assert_eq!(got, want, "{name} seed {seed}: --jobs 1 vs --jobs 8");
        }
    }
}

// ---------------------------------------------------------------------------
// Budget exhaustion
// ---------------------------------------------------------------------------

#[test]
fn tiny_fixpoint_budget_degrades_with_exit_4() {
    let budget = Budget { fixpoint_rounds: Some(1), ..Budget::unlimited() };
    for engine in [Engine::ContextSensitive, Engine::Summary] {
        let config = AnalysisConfig::with_engine(engine).with_budget(budget.clone());
        let result = Analyzer::new(config)
            .analyze_source("figure2.c", figure2_example())
            .expect("fig2 analyzes");
        let report = &result.report;
        assert!(!report.degradations.is_empty(), "{engine:?}: 1 round cannot converge");
        assert!(
            report.degradations.iter().all(|d| d.kind == DegradationKind::BudgetExhausted),
            "{engine:?}: budget exhaustion must not masquerade as an internal error"
        );
        assert_eq!(report.exit_code(), 4, "{engine:?}");
    }
}

#[test]
fn one_round_budget_degrades_recursion_but_not_a_settled_leaf() {
    // A one-round budget cannot confirm the fixpoint of an SCC that reads
    // its own summaries, but a non-recursive singleton never iterates:
    // `seven`, whose body settles in one pass, must not degrade.
    let src = r#"
        int fact(int n) { if (n <= 1) return 1; return n * fact(n - 1); }
        int odd(int n);
        int even(int n) { if (n == 0) return 1; return odd(n - 1); }
        int odd(int n) { if (n == 0) return 0; return even(n - 1); }
        int seven(void) { return 7; }
        int main() { return fact(3) + even(4) + seven(); }
    "#;
    let budget = Budget { fixpoint_rounds: Some(1), ..Budget::unlimited() };
    let config = AnalysisConfig::with_engine(Engine::Summary).with_budget(budget);
    let report = Analyzer::new(config).analyze_source("rounds.c", src).expect("analyzes").report;
    let degraded = degraded_functions(&report);
    for f in ["fact", "even", "odd"] {
        assert!(degraded.contains(f), "recursive `{f}` must degrade: {degraded:?}");
    }
    assert!(!degraded.contains("seven"), "non-recursive leaf degraded: {degraded:?}");
    assert_eq!(report.exit_code(), 4);
}

#[test]
fn one_round_budget_settles_a_loop_free_body_but_not_a_tainted_loop() {
    // One pass over a loop-free body reaches its fixpoint, even where a
    // branch on an unmonitored read gates an assert: `gate` does not
    // degrade and its error stands. A loop whose φ carries the read needs a
    // confirming pass, so `accumulate` still degrades.
    let src = r#"
        typedef struct { int mode; int gain; } Cmd;
        Cmd *cmd;
        void *shmat(int shmid, void *addr, int flags);
        void initComm(void)
        /** SafeFlow Annotation shminit */
        {
            cmd = (Cmd *) shmat(0, 0, 0);
            /** SafeFlow Annotation
                assume(shmvar(cmd, sizeof(Cmd)))
                assume(noncore(cmd))
            */
        }
        int gate(int out) {
            if (cmd->mode > 0)
                out = 0;
            /** SafeFlow Annotation assert(safe(out)) */
            return out;
        }
        int accumulate(int n) {
            int acc = 0;
            int i;
            for (i = 0; i < n; i++)
                acc = acc + cmd->gain;
            return acc;
        }
        int main() { initComm(); return gate(1) + accumulate(4); }
    "#;
    let budget = Budget { fixpoint_rounds: Some(1), ..Budget::unlimited() };
    for engine in [Engine::Summary, Engine::ContextSensitive] {
        let config = AnalysisConfig::with_engine(engine).with_budget(budget.clone());
        let report =
            Analyzer::new(config).analyze_source("passes.c", src).expect("analyzes").report;
        let degraded = degraded_functions(&report);
        assert!(degraded.contains("accumulate"), "{engine:?}: tainted loop must degrade");
        assert!(!degraded.contains("gate"), "{engine:?}: loop-free body degraded: {degraded:?}");
        assert!(
            report.errors.iter().any(|e| e.function == "gate" && e.critical == "out"),
            "{engine:?}: the gated assert keeps its error: {:?}",
            report.errors
        );
        assert_eq!(report.exit_code(), 4, "{engine:?}");
    }
}

#[test]
fn injected_solver_exhaustion_marks_bounds_unproven() {
    // Exhaust the solver step pool everywhere: A1 obligations degrade to
    // "unproven" violations instead of silently passing.
    let plan = FaultPlan::new().with_fault(FaultSite::Solver, None, FaultKind::BudgetExhaustion);
    for (name, file, src) in corpus() {
        let clean = AnalysisConfig::default();
        let faulty = clean.clone().with_fault_plan(plan.clone());
        let clean_report =
            Analyzer::new(clean).analyze_source(&file, &src).expect("analyzes").report;
        let faulty_report =
            Analyzer::new(faulty).analyze_source(&file, &src).expect("analyzes").report;
        assert!(
            faulty_report.violations.len() >= clean_report.violations.len(),
            "{name}: exhausted solver must never prove more than the clean run"
        );
    }
}

#[test]
fn unlimited_budget_reproduces_clean_report() {
    // `Budget::unlimited()` must be behaviorally identical to no budget at
    // all — the built-in bounds are unchanged.
    for engine in [Engine::ContextSensitive, Engine::Summary] {
        let plain = AnalysisConfig::with_engine(engine);
        let budgeted = plain.clone().with_budget(Budget::unlimited());
        let (a, code_a) = render_with(&plain, "figure2.c", figure2_example());
        let (b, code_b) = render_with(&budgeted, "figure2.c", figure2_example());
        assert_eq!(a, b);
        assert_eq!(code_a, code_b);
    }
}

// ---------------------------------------------------------------------------
// Monotone conservatism
// ---------------------------------------------------------------------------

/// Keys identifying a finding independent of flow details.
fn warning_keys(r: &safeflow::AnalysisReport) -> BTreeSet<String> {
    r.warnings.iter().map(|w| format!("{}|{}|{:?}", w.function, w.region_name, w.span)).collect()
}

fn error_keys(r: &safeflow::AnalysisReport) -> BTreeSet<String> {
    r.errors.iter().map(|e| format!("{}|{}|{:?}", e.function, e.critical, e.span)).collect()
}

fn violation_keys(r: &safeflow::AnalysisReport) -> BTreeSet<String> {
    r.violations
        .iter()
        .map(|v| format!("{:?}|{}|{:?}", v.restriction, v.function, v.span))
        .collect()
}

fn degraded_functions(r: &safeflow::AnalysisReport) -> BTreeSet<String> {
    r.degradations.iter().flat_map(|d| d.functions.iter().cloned()).collect()
}

/// Every clean finding must survive into the degraded report, or at the
/// very least its function must be named by a degradation entry (so the
/// reader knows coverage was lost *there*, never silently).
fn assert_monotone(
    name: &str,
    what: &str,
    clean: &BTreeSet<String>,
    degraded: &BTreeSet<String>,
    excused: &BTreeSet<String>,
) {
    for key in clean {
        if degraded.contains(key) {
            continue;
        }
        let function = key.split('|').next().unwrap_or_default();
        assert!(
            excused.contains(function),
            "{name}: clean-run {what} `{key}` vanished from the degraded report \
             and its function is not covered by any degradation entry"
        );
    }
}

#[test]
fn no_injected_fault_drops_a_clean_finding() {
    let programs = corpus();
    let clean_reports: Vec<_> = programs
        .iter()
        .map(|(_, file, src)| {
            Analyzer::new(AnalysisConfig::with_engine(Engine::Summary))
                .analyze_source(file, src)
                .expect("analyzes")
                .report
        })
        .collect();

    run_cases(24, |gen| {
        let seed = gen.i64(0, i64::MAX) as u64;
        let rate = gen.f64(0.05, 0.6);
        let plan = FaultPlan::seeded(seed, rate);
        for ((name, file, src), clean) in programs.iter().zip(&clean_reports) {
            let config = AnalysisConfig::with_engine(Engine::Summary)
                .with_fault_plan(plan.clone())
                .with_jobs(4);
            let degraded =
                Analyzer::new(config).analyze_source(file, src).expect("analyzes").report;
            let excused = degraded_functions(&degraded);
            assert_monotone(
                name,
                "warning",
                &warning_keys(clean),
                &warning_keys(&degraded),
                &excused,
            );
            assert_monotone(name, "error", &error_keys(clean), &error_keys(&degraded), &excused);
            assert_monotone(
                name,
                "violation",
                &violation_keys(clean),
                &violation_keys(&degraded),
                &excused,
            );
        }
    });
}

#[test]
fn context_engine_budget_degradation_is_monotone() {
    // The context-sensitive engine has no SCC tasks, but its fixpoint
    // budget must obey the same contract.
    let budget = Budget { fixpoint_rounds: Some(1), ..Budget::unlimited() };
    for (name, file, src) in corpus() {
        let clean = Analyzer::new(AnalysisConfig::default())
            .analyze_source(&file, &src)
            .expect("analyzes")
            .report;
        let degraded = Analyzer::new(AnalysisConfig::default().with_budget(budget.clone()))
            .analyze_source(&file, &src)
            .expect("analyzes")
            .report;
        let excused = degraded_functions(&degraded);
        assert_monotone(
            &name,
            "warning",
            &warning_keys(&clean),
            &warning_keys(&degraded),
            &excused,
        );
        assert_monotone(&name, "error", &error_keys(&clean), &error_keys(&degraded), &excused);
    }
}

// ---------------------------------------------------------------------------
// Canonical order
// ---------------------------------------------------------------------------

#[test]
fn degradation_entries_are_canonically_ordered() {
    let plan = FaultPlan::seeded(9, 0.5);
    for (name, file, src) in corpus() {
        let config =
            AnalysisConfig::with_engine(Engine::Summary).with_fault_plan(plan.clone()).with_jobs(8);
        let report = Analyzer::new(config).analyze_source(&file, &src).expect("analyzes").report;
        let mut sorted = report.degradations.clone();
        sorted.sort_by(|a, b| {
            a.kind
                .cmp(&b.kind)
                .then_with(|| a.functions.cmp(&b.functions))
                .then_with(|| a.detail.cmp(&b.detail))
        });
        assert_eq!(report.degradations, sorted, "{name}: degradations out of canonical order");
        for d in &report.degradations {
            let mut fns = d.functions.clone();
            fns.sort();
            fns.dedup();
            assert_eq!(d.functions, fns, "{name}: degradation functions must be sorted/deduped");
        }
    }
}

// ---------------------------------------------------------------------------
// Golden degraded snapshots
// ---------------------------------------------------------------------------

fn check_degraded_golden(name: &str, config: &AnalysisConfig) {
    let got = Analyzer::new(config.clone())
        .analyze_source("figure2.c", figure2_example())
        .expect("fig2 analyzes")
        .render();
    let path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(format!("{name}.txt"));
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &got).expect("write golden file");
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run UPDATE_GOLDEN=1 cargo test -p safeflow --test faults",
            path.display()
        )
    });
    assert_eq!(
        got,
        want,
        "degraded report `{name}` differs from {}; if intentional, regenerate with \
         UPDATE_GOLDEN=1 cargo test -p safeflow --test faults",
        path.display()
    );
}

#[test]
fn golden_degraded_scc_panic() {
    check_degraded_golden(
        "degraded_scc_panic",
        &AnalysisConfig::with_engine(Engine::Summary)
            .with_fault_plan(FaultPlan::panic_at(FaultSite::SccAnalysis, 0))
            .with_jobs(4),
    );
}

#[test]
fn golden_degraded_tiny_solver_budget() {
    check_degraded_golden(
        "degraded_tiny_solver_budget",
        &AnalysisConfig::with_engine(Engine::Summary)
            .with_budget(Budget { solver_steps: Some(1), ..Budget::unlimited() }),
    );
}
