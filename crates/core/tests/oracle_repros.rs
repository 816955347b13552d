//! Checked-in oracle repros as permanent regression cases.
//!
//! Every `tests/oracle-repros/*.c` at the workspace root is a regression
//! program: most are ones the differential oracle flagged (or minimized
//! fixtures for the bugs it flushed out) — the omega solver's degenerate-
//! equality panic, the CRLF/tab annotation-span drift, and the
//! order-sensitive store manifest keys. `param-named-like-a-global.c`
//! pins a disagreement between the engines instead: an
//! `assume(core(p, ...))` whose parameter `p` shares its name with an
//! unrelated global. Each program is driven through
//! every engine configuration — context-sensitive, summary single- and
//! multi-threaded, warm cache, store replay, and dirty-region incremental
//! — and every optimized configuration must reproduce the naive reference
//! run's report byte for byte (stripped per the observability contract).

use safeflow::{AnalysisConfig, AnalysisSession, Analyzer, Engine, SessionRun};
use safeflow_oracle::stripped;
use safeflow_syntax::VirtualFs;
use std::path::{Path, PathBuf};

fn repro_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/oracle-repros")
}

fn repros() -> Vec<(String, String)> {
    let mut files: Vec<(String, String)> = std::fs::read_dir(repro_dir())
        .expect("tests/oracle-repros exists")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "c"))
        .map(|p| {
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read_to_string(&p).expect("repro is UTF-8"))
        })
        .collect();
    files.sort();
    assert!(files.len() >= 5, "expected the checked-in repro suite, found {}", files.len());
    files
}

fn fs_of(name: &str, src: &str) -> VirtualFs {
    let mut fs = VirtualFs::new();
    fs.add(name, src.to_string());
    fs
}

/// Reference document for one repro: fresh analyzer, reference config.
fn reference_doc(name: &str, src: &str) -> String {
    let analyzer = Analyzer::new(AnalysisConfig::reference());
    let result = analyzer.analyze_program(name, &fs_of(name, src)).expect("repro analyzes");
    analyzer.report_json(&result).render()
}

fn scratch(tag: &str, name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "safeflow-repros-{}-{tag}-{}",
        std::process::id(),
        name.replace('.', "-")
    ))
}

#[test]
fn parallel_matches_reference_on_every_repro() {
    for (name, src) in repros() {
        let expected = stripped_doc(&reference_doc(&name, &src), false);
        for jobs in [2, 4] {
            let analyzer = Analyzer::new(AnalysisConfig::reference().with_jobs(jobs));
            let result =
                analyzer.analyze_program(&name, &fs_of(&name, &src)).expect("repro analyzes");
            let actual = stripped_doc(&analyzer.report_json(&result).render(), false);
            assert_eq!(actual, expected, "{name} diverged at jobs={jobs}");
        }
    }
}

#[test]
fn warm_cache_matches_reference_on_every_repro() {
    for (name, src) in repros() {
        let expected = stripped_doc(&reference_doc(&name, &src), true);
        let mut session = AnalysisSession::new(AnalysisConfig::reference());
        let fs = fs_of(&name, &src);
        session.check(&name, &fs).expect("cold run analyzes");
        let warm = session.check(&name, &fs).expect("warm run analyzes");
        let actual = stripped_doc(&warm.report_json.render(), true);
        assert_eq!(actual, expected, "{name} diverged on the cache-warm run");
    }
}

#[test]
fn store_replay_matches_reference_on_every_repro() {
    for (name, src) in repros() {
        let dir = scratch("replay", &name);
        let _ = std::fs::remove_dir_all(&dir);
        let expected = stripped_doc(&reference_doc(&name, &src), true);
        let fs = fs_of(&name, &src);
        let mut cold =
            AnalysisSession::with_store(AnalysisConfig::reference(), &dir).expect("store opens");
        cold.check(&name, &fs).expect("cold run analyzes");
        drop(cold); // release the store's writer lock before reopening
        let mut warm =
            AnalysisSession::with_store(AnalysisConfig::reference(), &dir).expect("store reopens");
        let outcome = warm.check(&name, &fs).expect("replay runs");
        assert_eq!(outcome.run, SessionRun::Replayed, "{name} did not replay");
        let actual = stripped_doc(&outcome.report_json.render(), true);
        assert_eq!(actual, expected, "{name} diverged on store replay");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn incremental_reanalysis_matches_reference_on_every_repro() {
    for (name, src) in repros() {
        let dir = scratch("incr", &name);
        let _ = std::fs::remove_dir_all(&dir);
        let expected = stripped_doc(&reference_doc(&name, &src), true);
        // Populate the store from an edited variant, then check the real
        // program against it: the dirty region recomputes over the
        // store-seeded cache.
        let variant = format!("{src}\n/* edited */\n");
        let mut seed =
            AnalysisSession::with_store(AnalysisConfig::reference(), &dir).expect("store opens");
        seed.check(&name, &fs_of(&name, &variant)).expect("variant analyzes");
        drop(seed); // release the store's writer lock before reopening
        let mut incr =
            AnalysisSession::with_store(AnalysisConfig::reference(), &dir).expect("store reopens");
        let outcome = incr.check(&name, &fs_of(&name, &src)).expect("incremental run analyzes");
        assert_eq!(outcome.run, SessionRun::Analyzed, "{name} replayed a stale manifest");
        let actual = stripped_doc(&outcome.report_json.render(), true);
        assert_eq!(actual, expected, "{name} diverged on incremental re-analysis");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn context_sensitive_engine_agrees_on_finding_counts() {
    // The context-sensitive engine legitimately differs from the summary
    // engine in trace detail, so the oracle never diffs their documents —
    // but on the repro suite both engines must agree on what they found.
    for (name, src) in repros() {
        let summary = Analyzer::new(AnalysisConfig::reference());
        let s = summary.analyze_program(&name, &fs_of(&name, &src)).expect("summary analyzes");
        let context = Analyzer::new(AnalysisConfig::with_engine(Engine::ContextSensitive));
        let c = context.analyze_program(&name, &fs_of(&name, &src)).expect("context analyzes");
        assert_eq!(
            c.report.exit_code(),
            s.report.exit_code(),
            "{name}: engines disagree on exit code"
        );
        assert_eq!(
            c.report.errors.len(),
            s.report.errors.len(),
            "{name}: engines disagree on error count"
        );
        assert_eq!(
            c.report.warnings.len(),
            s.report.warnings.len(),
            "{name}: engines disagree on warning count"
        );
    }
}

#[test]
fn crlf_repro_diagnostics_anchor_inside_annotations() {
    // The CRLF/tab fixture specifically locks the annotation-span fix: its
    // unmonitored-access warning must point at a real line/column inside
    // the file, not at a comment opener shifted by carriage returns.
    let (name, src) = repros()
        .into_iter()
        .find(|(n, _)| n == "crlf-tab-annotations.c")
        .expect("CRLF fixture is checked in");
    assert!(src.contains("\r\n"), "fixture must keep its CRLF line endings");
    assert!(src.contains('\t'), "fixture must keep its tab indentation");
    let analyzer = Analyzer::new(AnalysisConfig::reference());
    let result = analyzer.analyze_program(&name, &fs_of(&name, &src)).expect("analyzes");
    let rendered = result.render();
    // Every location the report prints must cite a line that exists.
    let lines = src.lines().count();
    for loc in rendered.split(&format!("{name}:")).skip(1) {
        let line: usize = loc
            .split(':')
            .next()
            .and_then(|l| l.parse().ok())
            .unwrap_or_else(|| panic!("unparsable location in report: {loc:.40}"));
        assert!(line >= 1 && line <= lines, "report cites line {line} of {lines}: {rendered}");
    }
}

fn stripped_doc(doc: &str, across_cache_states: bool) -> String {
    stripped(&safeflow::Json::parse(doc).expect("report is JSON"), across_cache_states)
}
