//! Audit all three corpus systems for the paper's kill-pid defect —
//! "In all the three systems, the first argument of a kill system call
//! invoked by the core component was dependent on an unmonitored non-core
//! value. This could be easily used to bring down the core component if
//! the non-core component overwrote the value with the process id of the
//! core component itself, causing the core component to kill itself!"
//!
//! ```text
//! cargo run --example kill_pid_audit
//! ```

use safeflow::{AnalysisConfig, Analyzer, DependencyKind};
use simplex_sim::{ExecutiveConfig, Fault, SimplexExecutive};

fn main() {
    println!("=== kill(pid) audit across the corpus ===\n");
    let analyzer = Analyzer::new(AnalysisConfig::default());
    for system in safeflow_corpus::systems() {
        let result = analyzer
            .analyze_source(system.core_file, system.core_source)
            .expect("corpus system analyzes");
        // The report document lists the errors in the report's order, with
        // each location resolved.
        let kill_errors: Vec<_> = result
            .report
            .errors
            .iter()
            .zip(result.report_json.arr_member("errors"))
            .filter(|(e, _)| e.critical.starts_with("kill"))
            .collect();
        println!("{}:", system.name);
        for (e, doc) in &kill_errors {
            let location = doc.str_member("location");
            println!("  {} in `{}` — {:?} dependency [{location}]", e.critical, e.function, e.kind);
            assert_eq!(e.kind, DependencyKind::Data);
        }
        assert!(!kill_errors.is_empty(), "{}: the kill-pid defect must be reported", system.name);
    }

    println!("\n=== The attack at run time ===\n");
    // The malicious non-core component plants the core's own pid (1000) in
    // shared memory and stops heartbeating; the unsafe core's watchdog then
    // kills... itself.
    let attack = Fault::RigPid { pid: 1000.0 };
    let unsafe_run = SimplexExecutive::new(ExecutiveConfig {
        fault: attack,
        unsafe_core: true,
        steps: 500,
        ..Default::default()
    })
    .run();
    println!(
        "unsafe core: watchdog fired kill({}) -> core {}",
        1000,
        if unsafe_run.killed_self { "KILLED ITSELF" } else { "survived" }
    );
    assert!(unsafe_run.killed_self);

    let safe_run = SimplexExecutive::new(ExecutiveConfig {
        fault: attack,
        unsafe_core: false,
        steps: 500,
        ..Default::default()
    })
    .run();
    println!(
        "safe core  : watchdog uses the registered pid -> core {}",
        if safe_run.killed_self { "KILLED ITSELF" } else { "survived" }
    );
    assert!(!safe_run.killed_self);
}
