//! Determinism lockdown for the parallel engine (ISSUE 1).
//!
//! The contract: the serialized analysis report is **byte-identical** for
//! every worker count and across repeated runs. The parallel schedule may
//! vary freely; the output may not. Checked over the whole corpus (the
//! three Table 1 systems, the Figure 2 example, and a generated wide
//! program whose SCC fan actually exercises concurrent scheduling) under
//! both engines, several iterations per thread count.

use safeflow::{AnalysisConfig, AnalysisSession, Analyzer, Engine, Json};
use safeflow_corpus::synthetic::{generate_wide, WideParams};
use safeflow_corpus::{figure2_example, systems};
use safeflow_syntax::VirtualFs;

/// Every corpus program the suite locks down, as (name, source) pairs.
fn corpus_programs() -> Vec<(String, String)> {
    let mut progs: Vec<(String, String)> = systems()
        .into_iter()
        .map(|s| (s.core_file.to_string(), s.core_source.to_string()))
        .collect();
    progs.push(("figure2.c".to_string(), figure2_example().to_string()));
    progs.push((
        "wide.c".to_string(),
        generate_wide(WideParams { families: 12, depth: 3, regions: 4, branches: 2 }),
    ));
    progs
}

fn render(engine: Engine, jobs: usize, file: &str, src: &str) -> String {
    Analyzer::new(AnalysisConfig::with_engine(engine).with_jobs(jobs))
        .analyze_source(file, src)
        .unwrap_or_else(|e| panic!("{file} must analyze: {e}"))
        .render()
}

/// Reports are byte-identical at `--jobs 1`, `4` and `8`, across several
/// iterations each.
#[test]
fn reports_are_identical_across_thread_counts() {
    for (file, src) in corpus_programs() {
        for engine in [Engine::ContextSensitive, Engine::Summary] {
            let reference = render(engine, 1, &file, &src);
            assert!(!reference.is_empty());
            for jobs in [1usize, 4, 8] {
                for round in 0..3 {
                    let got = render(engine, jobs, &file, &src);
                    assert_eq!(
                        got, reference,
                        "{file} ({engine:?}) diverged at jobs={jobs} round={round}"
                    );
                }
            }
        }
    }
}

/// Re-analysis in one session (each check over the summary table of the
/// last) is also byte-identical to the cold run at every thread count.
#[test]
fn warm_cache_reports_match_cold_at_every_thread_count() {
    for (file, src) in corpus_programs() {
        let reference = render(Engine::Summary, 1, &file, &src);
        for jobs in [1usize, 4, 8] {
            let mut session =
                AnalysisSession::new(AnalysisConfig::with_engine(Engine::Summary).with_jobs(jobs));
            let mut fs = VirtualFs::new();
            fs.add(file.as_str(), src.as_str());
            for round in 0..3 {
                let got = session
                    .check(&file, &fs)
                    .unwrap_or_else(|e| panic!("{file} must analyze: {e}"))
                    .rendered;
                assert_eq!(got, reference, "{file} warm run diverged at jobs={jobs} round={round}");
            }
        }
    }
}

/// The report document with the sections that move with the schedule or
/// the cache state stripped: its `cache` member and the metrics' `work`,
/// `sched`, `dist` and `timings_ns` sections.
fn cache_free(doc: &Json) -> String {
    let mut doc = doc.clone();
    let Json::Obj(members) = &mut doc else { panic!("the document is an object") };
    members.retain(|(k, _)| k != "cache");
    for (k, v) in members.iter_mut() {
        if k == "metrics" {
            let Json::Obj(sections) = v else { panic!("metrics is an object") };
            sections.retain(|(k, _)| k == "counters");
        }
    }
    doc.render()
}

/// One session checks program A, then B, then A again, and every document
/// equals the one a fresh session gives, at one and at four workers. A
/// check reuses its fact tables and graph buffers from one function to
/// the next; a buffer that kept anything would move a later function's
/// findings.
#[test]
fn checks_in_one_session_match_fresh_sessions() {
    let programs = corpus_programs();
    let ip = &programs[0];
    let wide = programs.last().expect("the corpus has programs");
    for jobs in [1usize, 4] {
        let config = AnalysisConfig::with_engine(Engine::Summary).with_jobs(jobs);
        let check = |session: &mut AnalysisSession, (file, src): &(String, String)| {
            let mut fs = VirtualFs::new();
            fs.add(file.as_str(), src.as_str());
            let outcome =
                session.check(file, &fs).unwrap_or_else(|e| panic!("{file} must analyze: {e}"));
            cache_free(&outcome.report_json)
        };
        let mut session = AnalysisSession::new(config.clone());
        for program in [ip, wide, ip] {
            let fresh = check(&mut AnalysisSession::new(config.clone()), program);
            assert_eq!(check(&mut session, program), fresh, "{} at jobs={jobs}", program.0);
        }
    }
}
