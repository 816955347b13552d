//! The monorepo corpus must flow through the whole pipeline (ISSUE 8):
//! preprocess (guarded headers, config macros, function-like macros),
//! parallel parse, lower, analyze — with byte-identical reports at every
//! `--jobs` value, like every other corpus program.

use safeflow::{AnalysisConfig, Analyzer, Engine};
use safeflow_corpus::monorepo::{generate_monorepo, total_loc, MonorepoParams};
use safeflow_ir::CallGraph;
use safeflow_syntax::pp::VirtualFs;

/// A mid-size monorepo: big enough to exercise cross-package call depth
/// and the config-macro conditionals, small enough for a debug-build test.
fn medium() -> MonorepoParams {
    MonorepoParams {
        packages: 5,
        units_per_package: 4,
        stages: 4,
        branches: 6,
        regions: 6,
        configs: 4,
        lib_depth: 3,
    }
}

fn load(params: MonorepoParams) -> (VirtualFs, usize) {
    let files = generate_monorepo(params);
    let loc = total_loc(&files);
    let mut fs = VirtualFs::new();
    for (name, text) in files {
        fs.add(name, text);
    }
    (fs, loc)
}

#[test]
fn monorepo_analyzes_cleanly() {
    let (fs, loc) = load(medium());
    assert!(loc > 1_500, "medium preset should be a real workload, got {loc} LOC");
    let result = Analyzer::new(AnalysisConfig::default())
        .analyze_program("main.c", &fs)
        .expect("monorepo must analyze");
    // Every region read sits under a chain-head monitor, so the corpus
    // scales without scaling the report.
    assert!(!result.diags.has_errors());
    assert!(!result.render().is_empty());
}

#[test]
fn non_recursive_singletons_are_summarized_once() {
    let (fs, _) = load(medium());
    let analyzer = Analyzer::new(AnalysisConfig::with_engine(Engine::Summary));
    let result = analyzer.analyze_program("main.c", &fs).expect("monorepo must analyze");
    let module = &result.module;
    let cg = CallGraph::build(module);
    assert!(
        cg.sccs.iter().all(|scc| scc.len() == 1 && !cg.is_recursive(scc[0])),
        "the monorepo has no recursion"
    );
    let summarized = module
        .definitions()
        .filter(|&f| !module.function(f).is_shminit() && !module.function(f).blocks.is_empty())
        .count() as u64;
    let metrics = analyzer.last_metrics();
    assert_eq!(metrics.work["summary.summarize_calls"], summarized);
    assert_eq!(metrics.work["summary.fixpoint_rounds"], metrics.counters["summary.sccs"]);
}

#[test]
fn monorepo_reports_identical_across_thread_counts() {
    let (fs, _) = load(medium());
    let reference = Analyzer::new(AnalysisConfig::default().with_jobs(1))
        .analyze_program("main.c", &fs)
        .expect("monorepo must analyze")
        .render();
    for jobs in [2usize, 4, 8] {
        let got = Analyzer::new(AnalysisConfig::default().with_jobs(jobs))
            .analyze_program("main.c", &fs)
            .expect("monorepo must analyze")
            .render();
        assert_eq!(got, reference, "monorepo report diverged at jobs={jobs}");
    }
}

#[test]
fn config_macros_select_real_code() {
    // Flipping a feature flag in config.h must change the analyzed
    // program (the conditionals are live, not decorative).
    let base = generate_monorepo(medium());
    let mut flipped = base.clone();
    for (name, text) in &mut flipped {
        if name == "config.h" {
            *text = text.replace("#define CFG_FEATURE_0 1", "#define CFG_FEATURE_0 0");
        }
    }
    let to_fs = |files: &[(String, String)]| {
        let mut fs = VirtualFs::new();
        for (n, t) in files {
            fs.add(n.clone(), t.clone());
        }
        fs
    };
    let parse = |fs: &VirtualFs| {
        let r = safeflow_syntax::parse_program_jobs("main.c", fs, 2);
        assert!(!r.diags.has_errors(), "monorepo must preprocess cleanly");
        safeflow_syntax::printer::print_unit(&r.unit)
    };
    let a = parse(&to_fs(&base));
    let b = parse(&to_fs(&flipped));
    assert_ne!(a, b, "CFG_FEATURE_0 must gate real program text");
}
