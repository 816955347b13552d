//! The generic-Simplex "rigged feedback" defect (paper §4), shown from
//! both sides:
//!
//! 1. **statically** — SafeFlow flags the core's re-read of published
//!    sensor feedback as a data dependency on non-core values;
//! 2. **dynamically** — the simulation shows a non-core writer rigging the
//!    re-read value so the tainted clamp reaches the actuator.
//!
//! ```text
//! cargo run --example find_rigged_feedback
//! ```

use safeflow::{AnalysisConfig, Analyzer, DependencyKind};
use simplex_sim::{ExecutiveConfig, Fault, SimplexExecutive};

fn main() {
    // ---- static side -----------------------------------------------------
    let system = &safeflow_corpus::systems()[1]; // Generic Simplex
    println!("=== SafeFlow on {} ===\n", system.name);
    let result = Analyzer::new(AnalysisConfig::default())
        .analyze_source(system.core_file, system.core_source)
        .expect("corpus system analyzes");

    let at = result
        .report
        .errors
        .iter()
        .position(|e| e.critical == "uOut")
        .expect("the rigged-feedback defect is reported");
    let rigged = &result.report.errors[at];
    println!(
        "SafeFlow error: critical `{}` in `{}` — {:?} dependency",
        rigged.critical, rigged.function, rigged.kind
    );
    assert_eq!(rigged.kind, DependencyKind::Data);
    // The report document holds the same error at the same index, with
    // every location on its value-flow path resolved.
    let flow = result.report_json.arr_member("errors")[at].arr_member("flow");
    if !flow.is_empty() {
        println!("value-flow path:");
        for step in flow {
            println!("  - {} [{}]", step.str_member("what"), step.str_member("location"));
        }
    }
    println!(
        "\nPaper §4: \"This potential value dependency on non-core values would be fatal,\n\
         if the non-core component replaced the sensor feedback with a hand-crafted value\n\
         that would 'rig' the recoverability check.\"\n"
    );

    // ---- dynamic side -----------------------------------------------------
    println!("=== The same defect at run time (simulation) ===\n");
    // The rig: the non-core side overwrites the published cart position with
    // 0.0, so the unsafe core's clamp limit is always the most permissive.
    let rig = Fault::RigFeedback { value: 0.0 };

    let unsafe_run = SimplexExecutive::new(ExecutiveConfig {
        fault: rig,
        unsafe_core: true,
        track_taint: true,
        steps: 800,
        ..Default::default()
    })
    .run();
    println!(
        "unsafe core (re-reads shared feedback): {} tainted values reached the actuator",
        unsafe_run.tainted_actuations
    );

    let safe_run = SimplexExecutive::new(ExecutiveConfig {
        fault: rig,
        unsafe_core: false,
        track_taint: true,
        steps: 800,
        ..Default::default()
    })
    .run();
    println!(
        "safe core   (uses its local copy)     : {} tainted values reached the actuator",
        safe_run.tainted_actuations
    );
    assert!(unsafe_run.tainted_actuations > 0);
    assert_eq!(safe_run.tainted_actuations, 0);
    println!(
        "\nThe fix SafeFlow pushes you toward — use the core-local copy instead of\n\
         re-reading shared memory — eliminates the attack surface entirely."
    );
}
