//! Finding labels under a declared label policy.
//!
//! Both phase-3 engines name a finding's label by one rule: the join of
//! every label that reaches its site past the sink's clearance. So the
//! label cannot depend on which context or which inlined copy of a helper
//! an engine happened to record first, and the two engines agree on it.

use safeflow::{AnalysisConfig, AnalysisReport, Analyzer, DependencyKind, Engine};
use std::path::Path;

/// A helper reads the `fused` channel and asserts the value. It is called
/// once under a monitor that declassifies `regF` down to `sensor_b`, and
/// once directly from `main`, where the read keeps its `fused` label.
const SHARED_HELPER: &str = r#"
typedef struct Blk { float v; int seq; int flag; int pad; } Blk;
Blk *regF;
int shmget(int key, int size, int flags);
void *shmat(int shmid, void *addr, int flags);

void initShm(void)
/** SafeFlow Annotation shminit */
{
    int shmid;
    shmid = shmget(77, sizeof(Blk), 0);
    regF = (Blk *) shmat(shmid, 0, 0);
    /** SafeFlow Annotation
        assume(label(sensor_b))
        assume(label(fused, sensor_b))
        assume(declassifier(fused, sensor_b))
        assume(channel(regF, sizeof(Blk), fused))
    */
}

float readF(void)
{
    float v;
    v = regF->v;
    /** SafeFlow Annotation assert(safe(v)) */
    return v;
}

float monitored(void)
/** SafeFlow Annotation assume(declassify(regF, 0, sizeof(Blk), sensor_b)) */
{
    return readF();
}

int main() {
    initShm();
    monitored();
    readF();
    return 0;
}
"#;

fn analyze(engine: Engine, file: &str, src: &str) -> AnalysisReport {
    Analyzer::new(AnalysisConfig::with_engine(engine))
        .analyze_source(file, src)
        .unwrap_or_else(|e| panic!("{file} must analyze: {e}"))
        .report
}

/// Each fresh analyzer hashes with fresh keys, so a report that depended
/// on a hash map's iteration order would vary across these runs. Both
/// engines see the helper's read twice, once declassified to `sensor_b`,
/// and label the site by the join, `fused`.
#[test]
fn a_helper_reached_under_two_labels_reports_their_join_every_run() {
    for engine in [Engine::ContextSensitive, Engine::Summary] {
        let analyzer = || Analyzer::new(AnalysisConfig::with_engine(engine));
        let first = analyzer().analyze_source("helper.c", SHARED_HELPER).expect("analyzes");
        for run in 1..20 {
            let again = analyzer().analyze_source("helper.c", SHARED_HELPER).expect("analyzes");
            assert_eq!(again.render(), first.render(), "{engine:?}: run {run} changed the report");
        }
        let report = &first.report;
        assert_eq!(report.warnings.len(), 1, "{engine:?}: {}", first.render());
        assert_eq!(report.errors.len(), 1, "{engine:?}: {}", first.render());
        assert_eq!(report.warnings[0].label.as_deref(), Some("fused"), "{engine:?}");
        assert_eq!(report.errors[0].label.as_deref(), Some("fused"), "{engine:?}");
        assert_eq!(report.errors[0].kind, DependencyKind::Data, "{engine:?}");
        // The kept flow starts at a source of the site's label.
        let flow = report.errors[0].flow.as_ref().expect("the error carries its flow").path();
        assert!(flow[0].0.contains("(label `fused`)"), "{engine:?}: {flow:?}");
    }
}

/// The summary engine's flow names a source by the label it reaches the
/// sink with: `monitorF` declassifies `regF` from `fused` to `sensor_b`,
/// so the flow behind `part`'s `sensor_b` error reads `sensor_b` too.
#[test]
fn summary_flow_names_the_declassified_label() {
    let path =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/policy/mixed_criticality.c");
    let src = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("example {} must exist: {e}", path.display()));
    let report = analyze(Engine::Summary, "mixed_criticality.c", &src);
    let part = report.errors.iter().find(|e| e.critical == "part").expect("`part` is an error");
    assert_eq!(part.label.as_deref(), Some("sensor_b"));
    let flow = part.flow.as_ref().expect("the error carries its flow").path();
    assert_eq!(flow[0].0, "read of non-core region `regF` (label `sensor_b`)", "{flow:?}");
}

/// A monitor declassifies the `sensor_a` channel `regA` to `to`, a label
/// that is not below `sensor_a`; `labels` declares the policy's labels.
fn non_lowering_declassifier(labels: &str, to: &str) -> String {
    format!(
        r#"
typedef struct Blk {{ float v; int seq; int flag; int pad; }} Blk;
Blk *regA;
int shmget(int key, int size, int flags);
void *shmat(int shmid, void *addr, int flags);

void initShm(void)
/** SafeFlow Annotation shminit */
{{
    int shmid;
    shmid = shmget(77, sizeof(Blk), 0);
    regA = (Blk *) shmat(shmid, 0, 0);
    /** SafeFlow Annotation
        {labels}
        assume(declassifier(sensor_a, {to}))
        assume(channel(regA, sizeof(Blk), sensor_a))
    */
}}

float monitorA(void)
/** SafeFlow Annotation assume(declassify(regA, 0, sizeof(Blk), {to})) */
{{
    float v;
    v = regA->v;
    return v;
}}

int main() {{
    float x;
    initShm();
    x = monitorA();
    /** SafeFlow Annotation assert(safe(x)) */
    return 0;
}}
"#
    )
}

/// A declassified read carries the declassifier's target label, whether
/// the target lies beside the source (`sensor_b`) or above it (`fused`):
/// both engines warn at the monitor's read and report the assert as a
/// `Data` error, each labeled with the target.
#[test]
fn a_non_lowering_declassifier_relabels_to_its_target() {
    let lateral = "assume(label(sensor_a))\n        assume(label(sensor_b))";
    let upward = "assume(label(sensor_a))\n        assume(label(fused, sensor_a))";
    for (labels, to) in [(lateral, "sensor_b"), (upward, "fused")] {
        let src = non_lowering_declassifier(labels, to);
        for engine in [Engine::ContextSensitive, Engine::Summary] {
            let report = analyze(engine, "declassify.c", &src);
            let label = |l: &Option<String>| l.as_deref() == Some(to);
            assert_eq!(report.warnings.len(), 1, "{engine:?} to {to}: {:?}", report.warnings);
            assert_eq!(report.errors.len(), 1, "{engine:?} to {to}: {:?}", report.errors);
            assert!(label(&report.warnings[0].label), "{engine:?}: {:?}", report.warnings);
            assert!(label(&report.errors[0].label), "{engine:?}: {:?}", report.errors);
            assert_eq!(report.errors[0].kind, DependencyKind::Data, "{engine:?} to {to}");
        }
    }
}
