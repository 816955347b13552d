//! The monorepo corpus must flow through the whole pipeline (ISSUE 8):
//! preprocess (guarded headers, config macros, function-like macros),
//! parallel parse, lower, analyze — with byte-identical reports at every
//! `--jobs` value, like every other corpus program.

use safeflow::{AnalysisConfig, AnalysisSession, Analyzer, Engine, MetricsSnapshot};
use safeflow_corpus::monorepo::{generate_monorepo, total_loc, MonorepoParams};
use safeflow_ir::CallGraph;
use safeflow_syntax::pp::VirtualFs;
use safeflow_syntax::Diagnostics;

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
    // scales without scaling the report; the frontend warns about nothing.
    assert!(result.report_json.get("diagnostics").is_none(), "{}", result.render());
    assert!(!result.render().is_empty());
}

#[test]
fn non_recursive_singletons_are_summarized_once() {
    let (fs, _) = load(medium());
    let analyzer = Analyzer::new(AnalysisConfig::with_engine(Engine::Summary));
    let result = analyzer.analyze_program("main.c", &fs).expect("monorepo must analyze");
    // The result keeps no module, so lower the same program for its call
    // graph.
    let parsed = safeflow_syntax::parse_preprocessed(safeflow_syntax::preprocess_program_jobs(
        "main.c", &fs, 1,
    ));
    assert!(parsed.is_ok(), "the monorepo parses: {:?}", parsed.diags);
    let mut module = safeflow_ir::lower::lower(&parsed.unit, &mut Diagnostics::new());
    safeflow_ir::ssa::promote_module(&mut module);
    let cg = CallGraph::build(&module);
    assert!(
        cg.sccs.iter().all(|scc| scc.len() == 1 && !cg.is_recursive(scc[0])),
        "the monorepo has no recursion"
    );
    let summarized = module
        .definitions()
        .filter(|&f| !module.function(f).is_shminit() && !module.function(f).blocks.is_empty())
        .count() as u64;
    let metrics = &result.metrics;
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

/// The benchmark's corpus: the 146-unit bench preset with shorter units and
/// the generated config macros.
fn bench_corpus() -> VirtualFs {
    load(MonorepoParams { stages: 3, branches: 6, ..MonorepoParams::bench() }).0
}

/// Asserts a check's work counters, reading the `work` section first and
/// `counters` second, as the benchmark does.
fn assert_work(stage: &str, metrics: &MetricsSnapshot, want: &[(&str, u64)]) {
    for &(key, want) in want {
        let got = metrics.work.get(key).or(metrics.counters.get(key)).copied().unwrap_or(0);
        assert_eq!(
            got, want,
            "{stage}: work counter `{key}` is {got}, pinned at {want}. A change that \
             lowers it on purpose updates the value here; one that raises it regressed"
        );
    }
}

/// The work the benchmark's checks do is a pure function of the input, so
/// it is gated exactly where wall time cannot be: a cold check, then
/// store-backed checks after a one-comment-line edit to a leaf-side unit
/// (`pkg0`, which many packages call into) and a top-side one (`pkg11`),
/// in a session reopened over the stored corpus, whose replay of the
/// unchanged corpus decodes no summary.
#[test]
fn bench_corpus_work_counters_are_pinned() {
    let config = AnalysisConfig::builder().engine(Engine::Summary).jobs(1).build_config();
    let mut fs = bench_corpus();
    let cold = AnalysisSession::new(config.clone()).check("main.c", &fs).expect("corpus checks");
    assert_work(
        "cold",
        &cold.metrics,
        &[
            ("engine.sccs_hashed", 418),
            ("summary.cache_misses", 418),
            ("summary.summarize_calls", 417),
            ("summary.body_passes", 417),
            ("summary.fixpoint_rounds", 418),
            ("restrict.functions_checked", 418),
            ("restrict.solver_calls", 0),
        ],
    );

    let dir = std::env::temp_dir().join(format!("safeflow-bench-counters-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut session = AnalysisSession::with_store(config.clone(), &dir).expect("store opens");
    session.check("main.c", &fs).expect("corpus checks");
    drop(session); // release the store's writer lock before reopening
                   // A reopened session replays the unchanged corpus without decoding a
                   // summary, and decodes the stored table on its first analyzed check.
    let mut session = AnalysisSession::with_store(config, &dir).expect("store reopens");
    let replayed = session.check("main.c", &fs).expect("corpus replays");
    assert_work(
        "replay",
        &replayed.metrics,
        &[("store.manifest_hits", 1), ("store.sccs_loaded", 418), ("store.sccs_decoded", 0)],
    );
    for (unit, dirty, decoded) in [("pkg0/unit0.c", 49, 418), ("pkg11/unit0.c", 5, 0)] {
        let text = format!("/* edit */\n{}", fs.get(unit).expect("unit exists"));
        fs.add(unit, text);
        let edited = session.check("main.c", &fs).expect("corpus checks");
        assert_work(
            unit,
            &edited.metrics,
            &[
                ("summary.cache_misses", dirty),
                ("summary.summarize_calls", dirty),
                ("summary.body_passes", dirty),
                ("store.sccs_invalidated", dirty),
                ("store.sccs_decoded", decoded),
            ],
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The context-sensitive engine's work on the same corpus, cold: the
/// contexts it analyzes, its module-level rounds, its passes over function
/// bodies and the instructions those passes visit. Every body of the corpus
/// is loop-free, so each context takes one pass per module round.
#[test]
fn bench_corpus_context_engine_work_is_pinned() {
    let config = AnalysisConfig::builder().engine(Engine::ContextSensitive).jobs(1).build_config();
    let cold =
        AnalysisSession::new(config).check("main.c", &bench_corpus()).expect("corpus checks");
    assert_work(
        "context cold",
        &cold.metrics,
        &[
            ("taint.contexts", 1_156),
            ("taint.module_rounds", 2),
            ("taint.function_rounds", 2_312),
            ("taint.vfg_nodes_visited", 112_484),
        ],
    );
}
