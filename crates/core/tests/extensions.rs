//! Tests for the paper's §3.4 discussion and extensions:
//!
//! * §3.4.1 false positives — control dependence classification and the
//!   restructuring advice;
//! * §3.4.2 non-core component encapsulation — extra `assume` annotations
//!   declaring shared locations core within certain functions;
//! * §3.4.3 message passing — `noncore(socket)` descriptors and `recv`
//!   buffer tainting with local-pointer monitoring.

use safeflow::{AnalysisConfig, Analyzer, DependencyKind, Engine};

fn analyze_both(src: &str) -> Vec<(Engine, safeflow::AnalysisResult)> {
    [Engine::ContextSensitive, Engine::Summary]
        .into_iter()
        .map(|e| {
            (
                e,
                Analyzer::new(AnalysisConfig::with_engine(e))
                    .analyze_source("ext.c", src)
                    .unwrap_or_else(|err| panic!("{e:?}: {err}")),
            )
        })
        .collect()
}

const SHM_PRELUDE: &str = r#"
    typedef struct { float value; int flag; } Blk;
    Blk *shared;
    void *shmat(int shmid, void *addr, int flags);
    void send(float v);

    void initShm(void)
    /** SafeFlow Annotation shminit */
    {
        shared = (Blk *) shmat(0, 0, 0);
        /** SafeFlow Annotation
            assume(shmvar(shared, sizeof(Blk)))
            assume(noncore(shared))
        */
    }
"#;

/// §3.4.2: "the function decision could be further annotated with
/// assume(core(feedback, ...)), thus declaring feedback to be safe to
/// dereference in decision and all the functions recursively called by it."
#[test]
fn encapsulation_annotation_extends_to_callees() {
    let src = format!(
        r#"{SHM_PRELUDE}
        float leaf(void) {{ return shared->value; }}
        float middle(void) {{ return leaf() * 2.0; }}
        float trusted(void)
        /** SafeFlow Annotation assume(core(shared, 0, sizeof(Blk))) */
        {{
            return middle();
        }}
        int main() {{
            float out;
            initShm();
            out = trusted();
            /** SafeFlow Annotation assert(safe(out)) */
            send(out);
            return 0;
        }}
        "#
    );
    for (engine, result) in analyze_both(&src) {
        assert!(
            result.report.warnings.is_empty(),
            "{engine:?}: assume scope must cover transitive callees:\n{}",
            result.render()
        );
        assert!(result.report.errors.is_empty(), "{engine:?}:\n{}", result.render());
    }
}

/// The same callee chain WITHOUT the annotation must warn — proving the
/// previous test is not vacuous.
#[test]
fn unannotated_chain_still_warns() {
    let src = format!(
        r#"{SHM_PRELUDE}
        float leaf(void) {{ return shared->value; }}
        float middle(void) {{ return leaf() * 2.0; }}
        float untrusted(void) {{ return middle(); }}
        int main() {{
            float out;
            initShm();
            out = untrusted();
            /** SafeFlow Annotation assert(safe(out)) */
            send(out);
            return 0;
        }}
        "#
    );
    for (engine, result) in analyze_both(&src) {
        assert_eq!(result.report.warnings.len(), 1, "{engine:?}:\n{}", result.render());
        assert!(
            result.report.errors.iter().any(|e| e.critical == "out"),
            "{engine:?}:\n{}",
            result.render()
        );
    }
}

/// §3.4.1: the paper's restructuring advice — "a superior design would be
/// to restructure the non-core components by separating out an additional
/// core component that writes the configuration in shared memory." A
/// core-written region never warns.
#[test]
fn core_written_configuration_is_clean() {
    let src = r#"
        typedef struct { int mode; int rate; } Cfg;
        Cfg *cfgShm;
        void *shmat(int shmid, void *addr, int flags);
        void send(float v);

        void initShm(void)
        /** SafeFlow Annotation shminit */
        {
            cfgShm = (Cfg *) shmat(0, 0, 0);
            /** SafeFlow Annotation assume(shmvar(cfgShm, sizeof(Cfg))) */
        }

        int main() {
            float out;
            initShm();
            /* cfgShm has no noncore() annotation: a core component owns it
               (the paper's suggested restructuring). */
            if (cfgShm->mode == 1) {
                out = 2.0;
            } else {
                out = 1.0;
            }
            /** SafeFlow Annotation assert(safe(out)) */
            send(out);
            return 0;
        }
    "#;
    for (engine, result) in analyze_both(src) {
        assert!(result.report.warnings.is_empty(), "{engine:?}:\n{}", result.render());
        assert!(result.report.errors.is_empty(), "{engine:?}:\n{}", result.render());
    }
}

/// §3.4.3: a socket annotated `noncore` taints received buffers; an
/// unannotated socket is assumed to talk to core components and does not.
#[test]
fn socket_annotation_controls_recv_taint() {
    let tainted_src = r#"
        int ncSock;
        float buf[8];
        int recv(int socket, float *buffer, int length, int flags);
        void send(float v);
        void setup(void)
        /** SafeFlow Annotation shminit */
        {
            /** SafeFlow Annotation assume(noncore(ncSock)) */
        }
        int main() {
            float out;
            setup();
            recv(ncSock, buf, 8, 0);
            out = buf[0];
            /** SafeFlow Annotation assert(safe(out)) */
            send(out);
            return 0;
        }
    "#;
    for (engine, result) in analyze_both(tainted_src) {
        assert!(
            result.report.errors.iter().any(|e| e.critical == "out"),
            "{engine:?}: noncore socket data must taint:\n{}",
            result.render()
        );
    }

    // Same program without the noncore(socket) annotation: "Socket file
    // descriptors not annotated as non-core are assumed to communicate
    // with core components."
    let clean_src = tainted_src.replace("/** SafeFlow Annotation assume(noncore(ncSock)) */", "");
    for (engine, result) in analyze_both(&clean_src) {
        assert!(
            result.report.errors.is_empty(),
            "{engine:?}: core socket data is trusted:\n{}",
            result.render()
        );
    }
}

/// §3.4.3: "we use assume annotations to define that it is safe to
/// dereference received non-core data within the function ... applied to a
/// local pointer" — monitoring the received buffer through a parameter.
#[test]
fn received_buffer_monitored_through_parameter() {
    let src = r#"
        int ncSock;
        float rxbuf[8];
        int recv(int socket, float *buffer, int length, int flags);
        void send(float v);
        void setup(void)
        /** SafeFlow Annotation shminit */
        {
            /** SafeFlow Annotation assume(noncore(ncSock)) */
        }

        float validate(float *msg)
        /** SafeFlow Annotation assume(core(msg, 0, 32)) */
        {
            float v;
            v = msg[0];
            if (v > 100.0) return 0.0;
            if (v < 0.0 - 100.0) return 0.0;
            return v;
        }

        int main() {
            float out;
            setup();
            recv(ncSock, rxbuf, 8, 0);
            out = validate(rxbuf);
            /** SafeFlow Annotation assert(safe(out)) */
            send(out);
            return 0;
        }
    "#;
    // Note: buffer-parameter monitoring is resolved per-function (the
    // extension's local-pointer form); the context-sensitive engine applies
    // it at the load site.
    let result = Analyzer::new(AnalysisConfig::default()).analyze_source("ext.c", src).unwrap();
    // The validate() reads are monitored through the parameter annotation,
    // so no data error on `out`.
    assert!(
        result.report.errors.iter().all(|e| e.kind != DependencyKind::Data),
        "monitored received data must not be a data error:\n{}",
        result.render()
    );
}

/// §2 operational rules: writes by the core never change region status —
/// "Writes to a shared variable ... does not modify the truth values of
/// core(Si) and noncore(Si)" — so write-then-read of a noncore region is
/// still unsafe (this is exactly the rigged-feedback mechanism).
#[test]
fn write_does_not_sanitize_noncore_region() {
    let src = format!(
        r#"{SHM_PRELUDE}
        float sensor(void);
        int main() {{
            float out;
            initShm();
            shared->value = sensor();   /* core writes a clean value... */
            out = shared->value;        /* ...but the re-read is STILL unsafe */
            /** SafeFlow Annotation assert(safe(out)) */
            send(out);
            return 0;
        }}
        "#
    );
    for (engine, result) in analyze_both(&src) {
        assert_eq!(result.report.warnings.len(), 1, "{engine:?}:\n{}", result.render());
        assert!(
            result
                .report
                .errors
                .iter()
                .any(|e| e.critical == "out" && e.kind == DependencyKind::Data),
            "{engine:?}: write-then-read must stay unsafe:\n{}",
            result.render()
        );
    }
}

/// §3.4.2's encapsulation form on a *parameter* that shares its name with
/// an unrelated global: `assume(core(ctrl, ...))` resolves past the
/// region-less global `ctrl` to the parameter, so the monitor covers its
/// helper's read. Both engines must resolve the name the same way.
#[test]
fn assume_on_parameter_named_like_a_global_resolves_to_the_parameter() {
    let src = include_str!("../../../tests/oracle-repros/param-named-like-a-global.c");
    let runs = analyze_both(src);
    for (engine, result) in &runs {
        assert!(result.report.warnings.is_empty(), "{engine:?}:\n{}", result.render());
        assert!(result.report.errors.is_empty(), "{engine:?}:\n{}", result.render());
        assert!(
            !result
                .report
                .init_check
                .iter()
                .any(|n| n.contains("names no known shared-memory pointer")),
            "{engine:?}: the annotation must resolve:\n{}",
            result.render()
        );
    }
    assert_eq!(runs[0].1.report.init_check, runs[1].1.report.init_check);
}
