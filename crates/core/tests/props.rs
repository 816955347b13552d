//! Property-based tests on the analysis invariants.
//!
//! The load-bearing property is the paper's §3.3 claim about warnings:
//! "A warning is reported for each unsafe access to shared memory, without
//! any false positives or false negatives." We generate random programs
//! with a *known* set of unmonitored non-core reads and check the analyzer
//! reports exactly those sites — under both engines.
//!
//! The summary cache rides the same generator: a cache-warm re-analysis —
//! a session's second check, over the table its first check left — must
//! reproduce the cold report byte-for-byte with zero re-summarizations,
//! counted by each check's own `summary.cache_*` work metrics.

use safeflow::{AnalysisConfig, AnalysisSession, Analyzer, Engine, SessionOutcome};
use safeflow_syntax::VirtualFs;
use safeflow_util::prop::{run_cases, Gen};

/// The check's own summary-cache `(hits, misses)`, counted per function.
fn cache_work(outcome: &SessionOutcome) -> (u64, u64) {
    let work = &outcome.metrics.work;
    (work["summary.cache_hits"], work["summary.cache_misses"])
}

/// Checks the single file `name` holding `src` on `session`.
fn check(session: &mut AnalysisSession, name: &str, src: &str) -> SessionOutcome {
    let mut fs = VirtualFs::new();
    fs.add(name, src);
    session.check(name, &fs).unwrap_or_else(|e| panic!("{name} must analyze: {e}"))
}

/// Shape of one generated access function.
#[derive(Debug, Clone)]
struct AccessFn {
    /// Which region (0..regions) it reads.
    region: usize,
    /// Whether the function carries an assume(core(...)) for that region.
    monitored: bool,
    /// Number of reads of the region inside the function.
    reads: usize,
    /// Whether the read value flows to the function's return value.
    returns_it: bool,
}

/// A generated program specification.
#[derive(Debug, Clone)]
struct ProgramSpec {
    regions: usize,
    /// Which regions are noncore.
    noncore: Vec<bool>,
    fns: Vec<AccessFn>,
    /// Whether main asserts the combined return values.
    asserts: bool,
}

fn gen_spec(g: &mut Gen) -> ProgramSpec {
    let regions = g.usize(1, 4);
    let noncore = (0..regions).map(|_| g.bool()).collect();
    let fns = g.vec_of(1, 5, |g| AccessFn {
        region: g.usize(0, regions),
        monitored: g.bool(),
        reads: g.usize(1, 3),
        returns_it: g.bool(),
    });
    ProgramSpec { regions, noncore, fns, asserts: g.bool() }
}

fn render_program(spec: &ProgramSpec) -> String {
    let mut out = String::new();
    out.push_str("typedef struct Blk { float v; int seq; } Blk;\n");
    for r in 0..spec.regions {
        out.push_str(&format!("Blk *reg{r};\n"));
    }
    out.push_str("int shmget(int key, int size, int flags);\n");
    out.push_str("void *shmat(int shmid, void *addr, int flags);\n");
    out.push_str("void sink(float v);\n\n");

    out.push_str("void initShm(void)\n/** SafeFlow Annotation shminit */\n{\n");
    out.push_str("    char *cursor;\n");
    out.push_str(&format!(
        "    cursor = (char *) shmat(shmget(1, {} * sizeof(Blk), 0), 0, 0);\n",
        spec.regions
    ));
    for r in 0..spec.regions {
        out.push_str(&format!(
            "    reg{r} = (Blk *) cursor;\n    cursor = cursor + sizeof(Blk);\n"
        ));
    }
    out.push_str("    /** SafeFlow Annotation\n");
    for r in 0..spec.regions {
        out.push_str(&format!("        assume(shmvar(reg{r}, sizeof(Blk)))\n"));
    }
    for (r, &nc) in spec.noncore.iter().enumerate() {
        if nc {
            out.push_str(&format!("        assume(noncore(reg{r}))\n"));
        }
    }
    out.push_str("    */\n}\n\n");

    for (i, f) in spec.fns.iter().enumerate() {
        out.push_str(&format!("float access{i}(void)\n"));
        if f.monitored {
            out.push_str(&format!(
                "/** SafeFlow Annotation assume(core(reg{}, 0, sizeof(Blk))) */\n",
                f.region
            ));
        }
        out.push_str("{\n    float acc;\n    acc = 0.0;\n");
        for _ in 0..f.reads {
            out.push_str(&format!("    acc = acc + reg{}->v;\n", f.region));
        }
        if f.returns_it {
            out.push_str("    return acc;\n}\n\n");
        } else {
            out.push_str("    sink(acc);\n    return 1.0;\n}\n\n");
        }
    }

    out.push_str("int main() {\n    float total;\n    initShm();\n    total = 0.0;\n");
    for i in 0..spec.fns.len() {
        out.push_str(&format!("    total = total + access{i}();\n"));
    }
    if spec.asserts {
        out.push_str("    /** SafeFlow Annotation assert(safe(total)) */\n");
    }
    out.push_str("    sink(total);\n    return 0;\n}\n");
    out
}

/// Ground truth: expected warning count = reads in functions that read a
/// noncore region without monitoring it.
fn expected_warnings(spec: &ProgramSpec) -> usize {
    spec.fns.iter().filter(|f| spec.noncore[f.region] && !f.monitored).map(|f| f.reads).sum()
}

/// Ground truth: the assert errs iff some unmonitored noncore read flows
/// into `total` — i.e., some unmonitored access function *returns* the
/// value (or taints memory that main reads — our generator doesn't).
fn expect_assert_error(spec: &ProgramSpec) -> bool {
    spec.asserts && spec.fns.iter().any(|f| spec.noncore[f.region] && !f.monitored && f.returns_it)
}

/// Warnings are exact: no false positives, no false negatives (§3.3).
#[test]
fn warnings_are_exact() {
    run_cases(64, |g| {
        let spec = gen_spec(g);
        let src = render_program(&spec);
        for engine in [Engine::ContextSensitive, Engine::Summary] {
            let result = Analyzer::new(AnalysisConfig::with_engine(engine))
                .analyze_source("gen.c", &src)
                .expect("generated program analyzes");
            assert_eq!(
                result.report.warnings.len(),
                expected_warnings(&spec),
                "{:?} on:\n{}\nreport:\n{}",
                engine,
                src,
                result.render()
            );
        }
    });
}

/// The assert errs exactly when an unmonitored noncore value flows to it.
#[test]
fn assert_errors_match_ground_truth() {
    run_cases(64, |g| {
        let spec = gen_spec(g);
        let src = render_program(&spec);
        for engine in [Engine::ContextSensitive, Engine::Summary] {
            let result = Analyzer::new(AnalysisConfig::with_engine(engine))
                .analyze_source("gen.c", &src)
                .expect("generated program analyzes");
            let has_total_error = result.report.errors.iter().any(|e| e.critical == "total");
            assert_eq!(
                has_total_error,
                expect_assert_error(&spec),
                "{:?} on:\n{}\nreport:\n{}",
                engine,
                src,
                result.render()
            );
        }
    });
}

/// Both engines always agree on counts for this program family.
#[test]
fn engines_agree() {
    run_cases(64, |g| {
        let spec = gen_spec(g);
        let src = render_program(&spec);
        let cs = Analyzer::new(AnalysisConfig::with_engine(Engine::ContextSensitive))
            .analyze_source("gen.c", &src)
            .expect("cs");
        let sm = Analyzer::new(AnalysisConfig::with_engine(Engine::Summary))
            .analyze_source("gen.c", &src)
            .expect("sm");
        assert_eq!(cs.report.warnings.len(), sm.report.warnings.len());
        assert_eq!(cs.report.errors.len(), sm.report.errors.len());
        assert_eq!(cs.report.violations.len(), sm.report.violations.len());
    });
}

/// Fully monitored programs are clean regardless of shape.
#[test]
fn fully_monitored_programs_are_clean() {
    run_cases(64, |g| {
        let mut spec = gen_spec(g);
        for f in &mut spec.fns {
            f.monitored = true;
        }
        let src = render_program(&spec);
        let result = Analyzer::new(AnalysisConfig::default())
            .analyze_source("gen.c", &src)
            .expect("analyzes");
        assert!(result.report.warnings.is_empty(), "{}", result.render());
        assert!(result.report.errors.is_empty(), "{}", result.render());
    });
}

/// Cache-warm re-analysis reproduces the cold report byte-for-byte and
/// re-summarizes nothing: the second run over the same module must be all
/// cache hits, zero misses, at any thread count.
#[test]
fn cache_warm_reanalysis_is_identical_and_free() {
    run_cases(48, |g| {
        let spec = gen_spec(g);
        let src = render_program(&spec);
        for jobs in [1, 4] {
            let mut session =
                AnalysisSession::new(AnalysisConfig::with_engine(Engine::Summary).with_jobs(jobs));
            let cold = check(&mut session, "gen.c", &src);
            let (cold_hits, cold_misses) = cache_work(&cold);
            assert_eq!(cold_hits, 0, "first run over an empty cache has no hits");
            assert!(cold_misses > 0, "cold run must summarize something");

            let warm = check(&mut session, "gen.c", &src);
            let (warm_hits, warm_misses) = cache_work(&warm);
            assert_eq!(
                warm_misses, 0,
                "warm run re-summarized a function (jobs = {jobs}) on:\n{src}"
            );
            assert_eq!(
                warm_hits, cold_misses,
                "warm run must hit once per summarized function (jobs = {jobs})"
            );
            assert_eq!(
                cold.rendered, warm.rendered,
                "cache-warm report differs (jobs = {jobs}) on:\n{src}"
            );
        }
    });
}

/// A warm cache is also a *correct* cache: the warm report still matches
/// the ground truth the generator knows.
#[test]
fn cache_warm_report_matches_ground_truth() {
    run_cases(48, |g| {
        let spec = gen_spec(g);
        let src = render_program(&spec);
        let mut session = AnalysisSession::new(AnalysisConfig::with_engine(Engine::Summary));
        check(&mut session, "gen.c", &src);
        let warm = check(&mut session, "gen.c", &src);
        let report = &warm.result.as_ref().expect("a storeless check analyzes").report;
        assert_eq!(report.warnings.len(), expected_warnings(&spec), "{}", warm.rendered);
        let has_total_error = report.errors.iter().any(|e| e.critical == "total");
        assert_eq!(has_total_error, expect_assert_error(&spec), "{}", warm.rendered);
    });
}

/// Editing one function invalidates exactly its own summary and its
/// (transitive) callers' — the Merkle chain — while unrelated functions
/// replay from the cache.
#[test]
fn cache_invalidation_is_limited_to_the_mutated_chain() {
    let base = r#"
        int leaf(int x) { return x + 1; }
        int mid(int x) { return leaf(x) * 2; }
        int other(int x) { return x - 3; }
        int main() { return mid(4) + other(5); }
    "#;
    let mut session = AnalysisSession::new(AnalysisConfig::with_engine(Engine::Summary));
    let mut run = |src: &str| cache_work(&check(&mut session, "t.c", src));
    assert_eq!(run(base), (0, 4), "four functions summarized cold");

    // Mutate a constant inside `leaf` (same byte length, so spans of the
    // other functions are untouched): `leaf`, `mid`, `main` must be
    // re-summarized; `other` must replay from the cache.
    let edited = base.replace("x + 1", "x + 7");
    assert_ne!(base, edited);
    let (hits, misses) = run(&edited);
    assert_eq!(hits, 1, "`other` alone should hit");
    assert_eq!(misses, 3, "`leaf` and its caller chain (`mid`, `main`) should miss");

    // Re-analyzing the edited program again is now fully warm.
    assert_eq!(run(&edited), (4, 0));

    // The session keeps what a store keeps — the last run's live table,
    // not every summary it ever computed — so going back to `base`
    // replays only `other` and re-summarizes `base`'s own chain.
    assert_eq!(run(base), (1, 3), "only `other` survives from the edited run's table");
}
