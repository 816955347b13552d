//! Quickstart: analyze the paper's running example (Figure 2) and walk
//! through everything SafeFlow reports.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use safeflow::{AnalysisConfig, Analyzer};

fn main() {
    // The paper's Figure 2: the core controller of the inverted pendulum
    // Simplex implementation, with the annotated initComm of Figure 3.
    let source = safeflow_corpus::figure2_example();

    let analyzer = Analyzer::new(AnalysisConfig::default());
    let result = analyzer
        .analyze_source("figure2.c", source)
        .expect("the running example parses and lowers cleanly");

    println!("=== SafeFlow on the paper's Figure 2 ===\n");
    print!("{}", result.render());

    println!("\n=== What happened ===");
    println!(
        "- initComm's shminit/shmvar annotations declared {} shared-memory regions;",
        result.report.regions.len()
    );
    println!("- `decision` assumes core(noncoreCtrl) — its reads of noncoreCtrl are monitored;");
    println!("- but `checkSafety` dereferences `feedback`, which is NOT in the assumed set:");
    // Locations come from the report document, where the run resolved
    // every span against its sources.
    for w in result.report_json.arr_member("warnings") {
        println!(
            "    warning at {}: unmonitored read of `{}` in `{}`",
            w.str_member("location"),
            w.str_member("region"),
            w.str_member("function")
        );
    }
    println!("- the assert(safe(output)) in main therefore fails — the paper's worked example:");
    for e in result.report_json.arr_member("errors") {
        println!(
            "    error: `{}` in `{}` ({} dependency)",
            e.str_member("critical"),
            e.str_member("function"),
            e.str_member("kind")
        );
        for (i, step) in e.arr_member("flow").iter().enumerate() {
            println!(
                "      {} {} [{}]",
                if i == 0 { "source:" } else { "  then:" },
                step.str_member("what"),
                step.str_member("location")
            );
        }
    }
    println!(
        "\nThe paper's suggested fix: \"use a local copy of the feedback as an argument to \
         decision, rather than the pointer to the shared location\" — or monitor `feedback` too."
    );
}
