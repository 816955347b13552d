//! P1: parallel analysis-engine scaling at 1/2/4/8 worker threads, plus
//! the content-hashed summary cache's warm-path cost.
//!
//! The workload is the wide synthetic component (`generate_wide`): many
//! independent call-chain families, so the SCC condensation offers real
//! parallelism to the summary engine and the per-function restriction
//! checks. Cold runs construct a fresh `Analyzer` per iteration (empty
//! cache); the warm run reuses one `Analyzer` so every SCC replays from
//! the cache.

use safeflow::{AnalysisConfig, Analyzer, Engine};
use safeflow_bench::Harness;
use safeflow_corpus::synthetic::{generate_wide, WideParams};
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

    // Warm path: same analyzer, unchanged source — every summary replays.
    let warm_analyzer = Analyzer::new(AnalysisConfig::with_engine(Engine::Summary));
    let primed = warm_analyzer.analyze_source("wide.c", &src).expect("prime");
    let primed = primed.metrics.work["summary.cache_misses"];
    let mut replayed = 0;
    h.bench("parallel/summary_warm/jobs1", 10, || {
        let result = warm_analyzer.analyze_source("wide.c", &src).expect("analyzes");
        let work = &result.metrics.work;
        assert_eq!(work["summary.cache_misses"], 0, "warm runs must not re-summarize");
        replayed += work["summary.cache_hits"];
        black_box(result.report.warnings.len())
    });
    println!("parallel/cache: {primed} summaries primed, {replayed} replayed across warm runs");
}
