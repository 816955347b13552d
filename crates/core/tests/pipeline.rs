//! End-to-end pipeline tests: the paper's running example (Figures 2/3)
//! and the defect archetypes from the evaluation (§4), run through both
//! phase-3 engines.

use safeflow::{AnalysisConfig, Analyzer, DependencyKind, Engine};

fn analyze(src: &str) -> safeflow::AnalysisResult {
    Analyzer::new(AnalysisConfig::default())
        .analyze_source("core.c", src)
        .unwrap_or_else(|e| panic!("analysis failed:\n{e}"))
}

fn analyze_with(engine: Engine, src: &str) -> safeflow::AnalysisResult {
    Analyzer::new(AnalysisConfig::with_engine(engine))
        .analyze_source("core.c", src)
        .unwrap_or_else(|e| panic!("analysis failed:\n{e}"))
}

/// The paper's Figure 2/3 core controller, annotated exactly as the paper
/// describes. The `decision` function reads `feedback` without `feedback`
/// being in its assumed-core set — the paper's own worked example of an
/// erroneous dependency.
const FIGURE2: &str = r#"
    typedef struct { float control; float track; float angle; } SHMData;
    SHMData *noncoreCtrl;
    SHMData *feedback;
    int shmget(int key, int size, int flags);
    void *shmat(int shmid, void *addr, int flags);
    void getFeedback(SHMData *fb);
    void computeSafety(SHMData *fb, float *safe);
    void Unlock(int lock);
    void Lock(int lock);
    void wait(int tsecs);
    void sendControl(float output);
    int shmLock; int tsecs;

    void initComm(void)
    /** SafeFlow Annotation shminit */
    {
        void *shmStart;
        int shmid;
        shmid = shmget(42, 2 * sizeof(SHMData), 0);
        shmStart = shmat(shmid, 0, 0);
        feedback = (SHMData *) shmStart;
        noncoreCtrl = feedback + 1;
        /** SafeFlow Annotation
            assume(shmvar(feedback, sizeof(SHMData)))
            assume(shmvar(noncoreCtrl, sizeof(SHMData)))
            assume(noncore(feedback))
            assume(noncore(noncoreCtrl))
        */
    }

    int checkSafety(SHMData *fb, SHMData *ctrl) {
        if (fb->angle > 0.5) return 0;
        if (fb->angle < 0.0 - 0.5) return 0;
        if (ctrl->control > 5.0) return 0;
        if (ctrl->control < 0.0 - 5.0) return 0;
        return 1;
    }

    float decision(SHMData *f, float safeControl, SHMData *ctrl)
    /***SafeFlow Annotation
        assume(core(noncoreCtrl, 0, sizeof(SHMData))) /***/
    {
        if (checkSafety(feedback, noncoreCtrl))
            return noncoreCtrl->control;
        else
            return safeControl;
    }

    int main() {
        float safeControl;
        float output;
        initComm();
        while (1) {
            getFeedback(feedback);
            computeSafety(feedback, &safeControl);
            Unlock(shmLock);
            wait(tsecs);
            Lock(shmLock);
            output = decision(feedback, safeControl, noncoreCtrl);
            /**SafeFlow Annotation
            assert(safe(output)); /***/
            sendControl(output);
        }
        return 0;
    }
"#;

#[test]
fn figure2_detects_feedback_dependency() {
    let result = analyze(FIGURE2);
    let r = &result.report;
    // Regions extracted with correct noncore flags.
    assert_eq!(r.regions.len(), 2);
    assert!(r.regions.iter().all(|x| x.noncore));
    // `decision` reads `feedback` unmonitored (via checkSafety's ctrl
    // argument path the reads are monitored; the feedback argument is the
    // paper's bug): warnings must mention region feedback.
    assert!(
        r.warnings.iter().any(|w| w.region_name == "feedback"),
        "expected a warning on unmonitored read of `feedback`: {:?}",
        r.warnings
    );
    // And the critical output must be flagged as depending on it.
    assert!(
        !r.errors.is_empty(),
        "expected an error dependency for assert(safe(output)); report:\n{}",
        result.render()
    );
    let err = &r.errors[0];
    assert_eq!(err.critical, "output");
    // No restriction violations in the paper's example.
    assert!(r.violations.is_empty(), "{:?}", r.violations);
}

#[test]
fn figure2_error_has_value_flow_path() {
    let result = analyze(FIGURE2);
    let err = result.report.errors.iter().find(|e| e.critical == "output").expect("output error");
    let flow = err.flow.as_ref().expect("flow path present");
    let path = flow.path();
    assert!(path.len() >= 2, "path should have at least source and sink: {path:?}");
    assert!(
        path[0].0.contains("non-core") || path[0].0.contains("unsafe"),
        "source should mention the non-core read: {path:?}"
    );
}

#[test]
fn figure2_fixed_version_is_clean_of_data_errors() {
    // The paper's suggested fix: pass a local copy of the feedback rather
    // than the shared pointer, and monitor both regions in decision.
    let fixed = FIGURE2.replace(
        "assume(core(noncoreCtrl, 0, sizeof(SHMData))) /***/",
        "assume(core(noncoreCtrl, 0, sizeof(SHMData)))\n        assume(core(feedback, 0, sizeof(SHMData))) /***/",
    );
    let result = analyze(&fixed);
    let r = &result.report;
    assert!(
        r.errors.iter().all(|e| e.kind != DependencyKind::Data),
        "after monitoring both regions there must be no data errors:\n{}",
        result.render()
    );
}

#[test]
fn both_engines_agree_on_figure2() {
    let cs = analyze_with(Engine::ContextSensitive, FIGURE2);
    let sm = analyze_with(Engine::Summary, FIGURE2);
    assert_eq!(
        cs.report.warnings.len(),
        sm.report.warnings.len(),
        "warning counts differ:\nCS:\n{}\nSummary:\n{}",
        cs.render(),
        sm.render()
    );
    assert_eq!(
        cs.report.errors.len(),
        sm.report.errors.len(),
        "error counts differ:\nCS:\n{}\nSummary:\n{}",
        cs.render(),
        sm.render()
    );
    assert_eq!(cs.report.violations.len(), sm.report.violations.len());
}

/// Paper §4: "the first argument of a kill system call invoked by the core
/// component was dependent on an unmonitored non-core value. This could
/// ... cause the core component to kill itself!"
#[test]
fn kill_pid_dependency_detected() {
    let src = r#"
        typedef struct { int watchdogPid; float control; } Config;
        Config *cfg;
        void *shmat(int shmid, void *addr, int flags);
        int kill(int pid, int sig);

        void initComm(void)
        /** SafeFlow Annotation shminit */
        {
            cfg = (Config *) shmat(0, 0, 0);
            /** SafeFlow Annotation
                assume(shmvar(cfg, sizeof(Config)))
                assume(noncore(cfg))
            */
        }

        int main() {
            int pid;
            initComm();
            pid = cfg->watchdogPid;
            kill(pid, 9);
            return 0;
        }
    "#;
    for engine in [Engine::ContextSensitive, Engine::Summary] {
        let result = analyze_with(engine, src);
        let r = &result.report;
        assert_eq!(r.warnings.len(), 1, "{engine:?}: {}", result.render());
        assert!(
            r.errors.iter().any(|e| e.critical.contains("kill") && e.kind == DependencyKind::Data),
            "{engine:?}: kill pid dependency must be a data error:\n{}",
            result.render()
        );
    }
}

/// Paper §4 (generic Simplex): the sensor feedback is written by the core
/// component but remains writable by non-core code; reading it back and
/// using it in the recoverability check lets a rigged value pass the
/// monitor. The unmonitored re-read must be flagged.
#[test]
fn rigged_feedback_reread_detected() {
    let src = r#"
        typedef struct { float position; float velocity; } Feedback;
        Feedback *fb;
        void *shmat(int shmid, void *addr, int flags);
        void readSensor(float *pos, float *vel);
        void sendControl(float output);

        void initComm(void)
        /** SafeFlow Annotation shminit */
        {
            fb = (Feedback *) shmat(0, 0, 0);
            /** SafeFlow Annotation
                assume(shmvar(fb, sizeof(Feedback)))
                assume(noncore(fb))
            */
        }

        int main() {
            float pos; float vel; float output;
            initComm();
            readSensor(&pos, &vel);
            fb->position = pos;   /* published for the non-core side */
            fb->velocity = vel;
            /* BUG: reads back through shared memory; a non-core component
               could have overwritten it. */
            output = fb->position * 0.5;
            /** SafeFlow Annotation assert(safe(output)) */
            sendControl(output);
            return 0;
        }
    "#;
    for engine in [Engine::ContextSensitive, Engine::Summary] {
        let result = analyze_with(engine, src);
        let r = &result.report;
        assert!(
            r.errors.iter().any(|e| e.kind == DependencyKind::Data),
            "{engine:?}: rigged feedback must be a data error:\n{}",
            result.render()
        );
    }
}

/// Paper §3.4.1: control dependence on non-core configuration produces a
/// classified false-positive candidate, not a data error.
#[test]
fn control_only_dependency_classified() {
    let src = r#"
        typedef struct { int haveComplexCtrl; float control; } Config;
        Config *cfg;
        void *shmat(int shmid, void *addr, int flags);
        void sendControl(float output);
        float computeSafe(void);

        void initComm(void)
        /** SafeFlow Annotation shminit */
        {
            cfg = (Config *) shmat(0, 0, 0);
            /** SafeFlow Annotation
                assume(shmvar(cfg, sizeof(Config)))
                assume(noncore(cfg))
            */
        }

        int main() {
            float output;
            initComm();
            /* The configuration flag is non-core, but both paths compute
               safe data: a control-only dependency (paper's FP case). */
            if (cfg->haveComplexCtrl) {
                output = computeSafe() * 2.0;
            } else {
                output = computeSafe();
            }
            /** SafeFlow Annotation assert(safe(output)) */
            sendControl(output);
            return 0;
        }
    "#;
    for engine in [Engine::ContextSensitive, Engine::Summary] {
        let result = analyze_with(engine, src);
        let r = &result.report;
        let err = r
            .errors
            .iter()
            .find(|e| e.critical == "output")
            .unwrap_or_else(|| panic!("{engine:?}: expected error:\n{}", result.render()));
        assert_eq!(
            err.kind,
            DependencyKind::ControlOnly,
            "{engine:?}: configuration branch is control-only:\n{}",
            result.render()
        );
    }
}

/// Arms that assign the same constant still join at a φ, and the φ carries
/// the branch's control label: `r` stays control-dependent on the non-core
/// flag. An SSA construction that folded the trivial φ `φ(1, 1)` into the
/// constant (Braun et al.'s on-the-fly SSA does) would lose this finding.
#[test]
fn identical_constant_arms_stay_control_only() {
    let src = r#"
        typedef struct { int flag; } Config;
        Config *cfg;
        void *shmat(int shmid, void *addr, int flags);
        void sendControl(int output);

        void initComm(void)
        /** SafeFlow Annotation shminit */
        {
            cfg = (Config *) shmat(0, 0, 0);
            /** SafeFlow Annotation
                assume(shmvar(cfg, sizeof(Config)))
                assume(noncore(cfg))
            */
        }

        int main() {
            int r;
            initComm();
            if (cfg->flag) r = 1; else r = 1;
            /** SafeFlow Annotation assert(safe(r)) */
            sendControl(r);
            return 0;
        }
    "#;
    for engine in [Engine::ContextSensitive, Engine::Summary] {
        let result = analyze_with(engine, src);
        let kinds: Vec<DependencyKind> =
            result.report.errors.iter().filter(|e| e.critical == "r").map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            [DependencyKind::ControlOnly],
            "{engine:?}: the φ of identical arms keeps its control label:\n{}",
            result.render()
        );
    }
}

/// Monitored reads are safe: the full monitor pattern produces no warnings
/// and no errors.
#[test]
fn fully_monitored_program_is_clean() {
    let src = r#"
        typedef struct { float control; } SHMData;
        SHMData *ctrl;
        void *shmat(int shmid, void *addr, int flags);
        void sendControl(float output);

        void initComm(void)
        /** SafeFlow Annotation shminit */
        {
            ctrl = (SHMData *) shmat(0, 0, 0);
            /** SafeFlow Annotation
                assume(shmvar(ctrl, sizeof(SHMData)))
                assume(noncore(ctrl))
            */
        }

        float monitor(float fallback)
        /** SafeFlow Annotation assume(core(ctrl, 0, sizeof(SHMData))) */
        {
            float v = ctrl->control;
            if (v > 5.0) return fallback;
            if (v < 0.0 - 5.0) return fallback;
            return v;
        }

        int main() {
            float output;
            initComm();
            output = monitor(0.0);
            /** SafeFlow Annotation assert(safe(output)) */
            sendControl(output);
            return 0;
        }
    "#;
    for engine in [Engine::ContextSensitive, Engine::Summary] {
        let result = analyze_with(engine, src);
        let r = &result.report;
        assert!(r.warnings.is_empty(), "{engine:?}: {}", result.render());
        assert!(r.errors.is_empty(), "{engine:?}: {}", result.render());
    }
}

/// Context sensitivity: a helper called both from a monitor (safe) and from
/// unmonitored code (unsafe) must still produce the warning and the error
/// on the unmonitored path.
#[test]
fn shared_helper_context_sensitivity() {
    let src = r#"
        typedef struct { float control; } SHMData;
        SHMData *ctrl;
        void *shmat(int shmid, void *addr, int flags);
        void sendControl(float output);

        void initComm(void)
        /** SafeFlow Annotation shminit */
        {
            ctrl = (SHMData *) shmat(0, 0, 0);
            /** SafeFlow Annotation
                assume(shmvar(ctrl, sizeof(SHMData)))
                assume(noncore(ctrl))
            */
        }

        float readCtrl(void) { return ctrl->control; }

        float monitor(float fallback)
        /** SafeFlow Annotation assume(core(ctrl, 0, sizeof(SHMData))) */
        {
            float v = readCtrl();
            if (v > 5.0) return fallback;
            return v;
        }

        int main() {
            float a; float b;
            initComm();
            a = monitor(0.0);      /* safe path */
            b = readCtrl();        /* unsafe path */
            /** SafeFlow Annotation assert(safe(a)) */
            sendControl(a);
            /** SafeFlow Annotation assert(safe(b)) */
            sendControl(b);
            return 0;
        }
    "#;
    for engine in [Engine::ContextSensitive, Engine::Summary] {
        let result = analyze_with(engine, src);
        let r = &result.report;
        let data_errors: Vec<_> =
            r.errors.iter().filter(|e| e.kind == DependencyKind::Data).collect();
        assert_eq!(
            data_errors.len(),
            1,
            "{engine:?}: exactly the unmonitored path errs:\n{}",
            result.render()
        );
        assert_eq!(data_errors[0].critical, "b", "{engine:?}");
        assert!(
            !r.warnings.is_empty(),
            "{engine:?}: the unmonitored context must warn:\n{}",
            result.render()
        );
    }
}

/// Taint must flow through plain (non-shared) globals: core code copies a
/// non-core value into a global, another function uses it critically.
#[test]
fn taint_through_plain_global() {
    let src = r#"
        typedef struct { float control; } SHMData;
        SHMData *ctrl;
        float cached;
        void *shmat(int shmid, void *addr, int flags);
        void sendControl(float output);

        void initComm(void)
        /** SafeFlow Annotation shminit */
        {
            ctrl = (SHMData *) shmat(0, 0, 0);
            /** SafeFlow Annotation
                assume(shmvar(ctrl, sizeof(SHMData)))
                assume(noncore(ctrl))
            */
        }

        void poll(void) { cached = ctrl->control; }

        int main() {
            float output;
            initComm();
            poll();
            output = cached;
            /** SafeFlow Annotation assert(safe(output)) */
            sendControl(output);
            return 0;
        }
    "#;
    for engine in [Engine::ContextSensitive, Engine::Summary] {
        let result = analyze_with(engine, src);
        assert!(
            result.report.errors.iter().any(|e| e.kind == DependencyKind::Data),
            "{engine:?}: taint must flow through global `cached`:\n{}",
            result.render()
        );
    }
}

/// §3.4.3 extension: data received over a noncore socket is unsafe until
/// monitored.
#[test]
fn recv_extension_taints_buffer() {
    let src = r#"
        int noncoreSock;
        float rxbuf[16];
        int recv(int socket, float *buffer, int length, int flags);
        void sendControl(float output);

        void setup(void)
        /** SafeFlow Annotation shminit */
        {
            /** SafeFlow Annotation assume(noncore(noncoreSock)) */
        }

        int main() {
            float output;
            setup();
            recv(noncoreSock, rxbuf, 16, 0);
            output = rxbuf[0];
            /** SafeFlow Annotation assert(safe(output)) */
            sendControl(output);
            return 0;
        }
    "#;
    for engine in [Engine::ContextSensitive, Engine::Summary] {
        let result = analyze_with(engine, src);
        assert!(
            result.report.errors.iter().any(|e| e.critical == "output"),
            "{engine:?}: received data must taint the buffer:\n{}",
            result.render()
        );
    }
}

/// Ineffective annotations (extent not spanning the whole region) are
/// reported as notes and do not suppress warnings (paper §3.1).
#[test]
fn partial_extent_annotation_is_ineffective() {
    let src = r#"
        typedef struct { float a; float b; } SHMData;
        SHMData *ctrl;
        void *shmat(int shmid, void *addr, int flags);
        void sendControl(float v);

        void initComm(void)
        /** SafeFlow Annotation shminit */
        {
            ctrl = (SHMData *) shmat(0, 0, 0);
            /** SafeFlow Annotation
                assume(shmvar(ctrl, sizeof(SHMData)))
                assume(noncore(ctrl))
            */
        }

        float partial(void)
        /** SafeFlow Annotation assume(core(ctrl, 0, 4)) */
        {
            return ctrl->a;
        }

        int main() {
            float output;
            initComm();
            output = partial();
            /** SafeFlow Annotation assert(safe(output)) */
            sendControl(output);
            return 0;
        }
    "#;
    let result = analyze(src);
    let r = &result.report;
    assert!(!r.warnings.is_empty(), "partial extent must not monitor:\n{}", result.render());
    assert!(
        r.init_check.iter().any(|n| n.contains("ineffective")),
        "ineffective annotation note expected: {:?}",
        r.init_check
    );
}

/// The analyzer rejects unparseable programs with diagnostics instead of
/// panicking.
#[test]
fn parse_errors_surface_as_analysis_error() {
    let err = Analyzer::new(AnalysisConfig::default())
        .analyze_source("bad.c", "int main( { return 0; }")
        .expect_err("must fail");
    let diags = err.diagnostics().expect("parse failures carry diagnostics");
    assert!(diags.has_errors());
    assert!(matches!(err, safeflow::AnalysisError::Parse { .. }));
}

/// Annotation counting: Table 1 reports annotation line counts; the report
/// exposes the bound-fact count.
#[test]
fn annotation_count_reported() {
    let result = analyze(FIGURE2);
    // initComm: shminit + 2 shmvar + 2 noncore = 5; decision: 1 assume;
    // main: 1 assert = 7 facts.
    assert_eq!(result.report.annotation_count, 7, "{}", result.render());
}

/// Multi-file programs via #include work end to end.
#[test]
fn multi_file_program() {
    use safeflow_syntax::VirtualFs;
    let mut fs = VirtualFs::new();
    fs.add(
        "shm.h",
        r#"
        typedef struct { float control; } SHMData;
        SHMData *ctrl;
        void *shmat(int shmid, void *addr, int flags);
        "#,
    );
    fs.add(
        "main.c",
        r#"
        #include "shm.h"
        void sendControl(float v);
        void initComm(void)
        /** SafeFlow Annotation shminit */
        {
            ctrl = (SHMData *) shmat(0, 0, 0);
            /** SafeFlow Annotation
                assume(shmvar(ctrl, sizeof(SHMData)))
                assume(noncore(ctrl))
            */
        }
        int main() {
            float output;
            initComm();
            output = ctrl->control;
            /** SafeFlow Annotation assert(safe(output)) */
            sendControl(output);
            return 0;
        }
        "#,
    );
    let result = Analyzer::new(AnalysisConfig::default())
        .analyze_program("main.c", &fs)
        .expect("analysis ok");
    assert_eq!(result.report.warnings.len(), 1);
    assert_eq!(result.report.errors.len(), 1);
}
