//! P1: parallel analysis-engine scaling at 1/2/4/8 worker threads, plus
//! the content-hashed summary cache's warm-path cost.
//!
//! The workload is the wide synthetic component (`generate_wide`): many
//! independent call-chain families, so the SCC condensation offers real
//! parallelism to the summary engine and the per-function restriction
//! checks. Cold runs construct a fresh `Analyzer` per iteration (empty
//! cache); the warm run checks in one storeless `AnalysisSession`, whose
//! checks each run over the last one's summary table, so every SCC
//! replays from the cache.

use safeflow::{AnalysisConfig, AnalysisSession, Analyzer, Engine};
use safeflow_bench::Harness;
use safeflow_corpus::synthetic::{generate_wide, WideParams};
use safeflow_syntax::VirtualFs;
use std::hint::black_box;

fn main() {
    let h = Harness::from_args();
    let src = generate_wide(WideParams { families: 48, depth: 3, regions: 8, branches: 4 });

    // Sanity: the workload analyzes cleanly and deterministically.
    let reference = Analyzer::new(AnalysisConfig::with_engine(Engine::Summary))
        .analyze_source("wide.c", &src)
        .expect("wide program analyzes");
    let reference_render = reference.render();

    for jobs in [1usize, 2, 4, 8] {
        h.bench(&format!("parallel/summary_cold/jobs{jobs}"), 10, || {
            let analyzer =
                Analyzer::new(AnalysisConfig::with_engine(Engine::Summary).with_jobs(jobs));
            let result = analyzer.analyze_source("wide.c", &src).expect("analyzes");
            assert_eq!(result.render(), reference_render, "non-deterministic at jobs={jobs}");
            black_box(result.report.contexts_analyzed)
        });
    }

    // Warm path: same session, unchanged source — every summary replays.
    let mut fs = VirtualFs::new();
    fs.add("wide.c", src.as_str());
    let mut warm_session = AnalysisSession::new(AnalysisConfig::with_engine(Engine::Summary));
    let primed = warm_session.check("wide.c", &fs).expect("prime");
    let primed = primed.metrics.work["summary.cache_misses"];
    let mut replayed = 0;
    h.bench("parallel/summary_warm/jobs1", 10, || {
        let outcome = warm_session.check("wide.c", &fs).expect("analyzes");
        let work = &outcome.metrics.work;
        assert_eq!(work["summary.cache_misses"], 0, "warm runs must not re-summarize");
        replayed += work["summary.cache_hits"];
        black_box(outcome.exit_code)
    });
    println!("parallel/cache: {primed} summaries primed, {replayed} replayed across warm runs");
}
