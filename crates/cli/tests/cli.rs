//! End-to-end tests of the `safeflow` binary.

use std::process::Command;

fn safeflow() -> Command {
    Command::new(env!("CARGO_BIN_EXE_safeflow"))
}

#[test]
fn help_prints_usage() {
    let out = safeflow().arg("--help").output().expect("runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("USAGE"));
    assert!(text.contains("--table1"));
}

#[test]
fn fig2_reports_error_and_exits_nonzero() {
    let out = safeflow().arg("--fig2").output().expect("runs");
    assert_eq!(out.status.code(), Some(2), "errors found => exit 2");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("ERROR"), "{text}");
    assert!(text.contains("feedback"), "{text}");
}

/// The §3.4.1 ablation from the command line: `--implicit-flow taint-only`
/// drops Figure 2's control-only `output` error, leaving its warnings, so
/// the run exits 1 where the default run exits 2. Both engines agree.
#[test]
fn taint_only_ablation_drops_the_fig2_control_error() {
    for engine in ["context", "summary"] {
        let with = safeflow().args(["--engine", engine, "--fig2"]).output().expect("runs");
        assert_eq!(with.status.code(), Some(2), "{engine}: the default run has an error");
        let text = String::from_utf8_lossy(&with.stdout);
        assert!(text.contains("critical `output`"), "{engine}: {text}");

        let without = safeflow()
            .args(["--engine", engine, "--fig2", "--implicit-flow", "taint-only"])
            .output()
            .expect("runs");
        assert_eq!(without.status.code(), Some(1), "{engine}: warnings only");
        let text = String::from_utf8_lossy(&without.stdout);
        assert!(!text.contains("critical `output`"), "{engine}: {text}");
        assert!(text.contains("warning: read of non-core region `feedback`"), "{engine}: {text}");
    }
}

#[test]
fn injected_scc_panic_is_contained_and_exits_3() {
    let out = safeflow()
        .args(["--engine", "summary", "--inject", "scc", "--fig2"])
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(3), "contained panic => exit 3");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("DEGRADED RUN"), "{text}");
    assert!(text.contains("internal error (contained)"), "{text}");
}

/// Under either engine a loop-free body settles in one pass, even when SSA
/// left an empty stub of a dead block in it: Figure 2's `decision`, whose
/// `if`/`else` returns on both arms, does not degrade under a one-round
/// budget. `main` carries a loop and still does.
#[test]
fn one_round_budget_settles_fig2_decision() {
    for engine in ["summary", "context"] {
        let out = safeflow()
            .args(["--engine", engine, "--budget", "fixpoint-rounds=1", "--fig2"])
            .output()
            .expect("runs");
        assert_eq!(out.status.code(), Some(4), "{engine}: main's loop still exhausts the budget");
        let text = String::from_utf8_lossy(&out.stdout);
        let degraded: Vec<&str> = text.lines().filter(|l| l.contains("budget exhausted")).collect();
        assert_eq!(degraded.len(), 1, "{engine}: {text}");
        assert!(degraded[0].contains("(functions: main)"), "{engine}: {text}");
    }
}

#[test]
fn bad_budget_spec_exits_2() {
    let out = safeflow().args(["--budget", "warp-factor=9", "--fig2"]).output().expect("runs");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown budget key"), "{err}");
}

#[test]
fn bad_inject_site_exits_2() {
    let out = safeflow().args(["--inject", "moon:1", "--fig2"]).output().expect("runs");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn table1_matches_and_exits_zero() {
    for engine in ["context", "summary"] {
        let out = safeflow().args(["--engine", engine, "--table1"]).output().expect("runs");
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "--table1 with {engine} must match:\n{text}");
        assert!(text.contains("finding counts MATCH"), "{text}");
        assert!(text.contains("[FOUND]"));
        assert!(!text.contains("[MISSED]"));
    }
}

/// A reader that closes the pipe early (`safeflow --table1 | head -1`)
/// is no internal error: the run ends with the exit code it would have
/// had, and says nothing on stderr.
#[test]
fn closed_stdout_keeps_the_exit_code() {
    let unpiped = safeflow().arg("--table1").output().expect("runs");
    let mut child = safeflow()
        .arg("--table1")
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawns");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), unpiped.status.code(), "{stderr}");
    assert!(!stderr.contains("internal error"), "{stderr}");
}

/// The two diagnostics for annotation names that resolve to nothing a
/// `shminit` fact can use: a `shmvar` on a local, and a `noncore` naming
/// no global at all.
#[test]
fn unresolved_annotation_names_are_diagnosed() {
    let dir = std::env::temp_dir().join(format!("safeflow_cli_names_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(
        dir.join("names.c"),
        "void *shmat(int shmid, void *addr, int flags);
void init(void)
/** SafeFlow Annotation shminit */
{
    int *local = (int *) shmat(0, 0, 0);
    /** SafeFlow Annotation
        assume(shmvar(local, 4))
        assume(noncore(nosuchName))
    */
}
int main() { init(); return 0; }
",
    )
    .unwrap();
    let expected = "\
error: shmvar(local, ...): `local` is not a global pointer variable [names.c:7:9]
       7 |         assume(shmvar(local, 4))
         |         ^^^^^^^^^^^^^^^^^^^^^^^^
warning: noncore(nosuchName): no such shared-memory region or descriptor; annotation ignored [names.c:8:9]
       8 |         assume(noncore(nosuchName))
         |         ^^^^^^^^^^^^^^^^^^^^^^^^^^^
";
    for engine in ["context", "summary"] {
        let out = safeflow()
            .args(["--engine", engine, "names.c"])
            .current_dir(&dir)
            .output()
            .expect("runs");
        assert_eq!(String::from_utf8_lossy(&out.stderr), expected, "{engine}");
        assert_eq!(out.status.code(), Some(2), "{engine}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn analyzes_file_from_disk() {
    let dir = std::env::temp_dir().join("safeflow_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("clean.c");
    std::fs::write(
        &path,
        r#"
        typedef struct { float v; } Blk;
        Blk *reg;
        void *shmat(int a, void *b, int c);
        void sink(float v);
        void init(void)
        /** SafeFlow Annotation shminit */
        {
            reg = (Blk *) shmat(0, 0, 0);
            /** SafeFlow Annotation assume(shmvar(reg, sizeof(Blk))) */
        }
        int main() { init(); sink(1.0); return 0; }
        "#,
    )
    .unwrap();
    let out = safeflow().arg(path.to_str().unwrap()).output().expect("runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
}

#[test]
fn plain_run_and_check_print_the_same_frontend_warnings() {
    let dir = std::env::temp_dir().join(format!("safeflow_cli_arity_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("arity.c");
    std::fs::write(&path, "int f(int a) { return a; }\nint main() { return f(1, 2); }\n").unwrap();
    let path = path.to_str().unwrap();
    let plain = safeflow().arg(path).output().expect("runs");
    let check = safeflow().args(["check", "--engine", "context", path]).output().expect("runs");
    let json = ["--format", "json", "--metrics=json", path];
    let plain_json = safeflow().args(json).output().expect("runs");
    let check_json =
        safeflow().args(["check", "--engine", "context"]).args(json).output().expect("runs");
    let _ = std::fs::remove_dir_all(&dir);
    let text = String::from_utf8_lossy(&plain.stdout);
    assert!(text.contains("warning: too many arguments to `f`"), "{text}");
    assert_eq!(text, String::from_utf8_lossy(&check.stdout));
    assert_eq!(plain.status.code(), check.status.code());
    // One check path serves both modes: their documents differ only in
    // volatile numbers.
    let plain_json = strip_volatile_sections(&String::from_utf8_lossy(&plain_json.stdout));
    assert!(plain_json.contains("\"module.functions\": 2"), "{plain_json}");
    // The document carries the frontend warnings the text prints.
    assert!(plain_json.contains("\"diagnostics\": [\n"), "{plain_json}");
    assert!(plain_json.contains("warning: too many arguments to `f`"), "{plain_json}");
    assert!(!plain_json.contains("timings_ns"), "{plain_json}");
    assert_eq!(plain_json, strip_volatile_sections(&String::from_utf8_lossy(&check_json.stdout)));
}

#[test]
fn dot_flag_emits_graphviz() {
    let out = safeflow().args(["--fig2", "--dot"]).output().expect("runs");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("digraph valueflow"), "{text}");
}

#[test]
fn dot_is_drawn_from_a_replayed_run_too() {
    let dir = std::env::temp_dir().join(format!("safeflow_cli_dot_replay_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("kill.c");
    std::fs::write(
        &path,
        r#"
        typedef struct { int pid; } Ctl;
        Ctl *nc;
        void *shmat(int a, void *b, int c);
        void kill(int pid, int sig);
        void init(void)
        /** SafeFlow Annotation shminit */
        {
            nc = (Ctl *) shmat(0, 0, 0);
            /** SafeFlow Annotation
                assume(shmvar(nc, sizeof(Ctl)))
                assume(noncore(nc))
            */
        }
        int main() { int pid; init(); pid = nc->pid; kill(pid, 9); return 0; }
        "#,
    )
    .unwrap();
    let store = dir.join("store");
    let run = || {
        let out = safeflow()
            .arg("check")
            .arg(&path)
            .arg("--store")
            .arg(&store)
            .args(["--dot", "--metrics=json"])
            .output()
            .expect("runs");
        assert_eq!(out.status.code(), Some(2), "{}", String::from_utf8_lossy(&out.stderr));
        // The report, then the DOT graphs, then the metrics document.
        let text = String::from_utf8_lossy(&out.stdout).into_owned();
        let (report, metrics) = text.split_once("\n{\n").expect("a metrics document");
        let dot = &report[report.find("// value-flow graph").expect("a DOT graph")..];
        (dot.to_string(), metrics.to_string())
    };
    let (cold_dot, cold_metrics) = run();
    let (warm_dot, warm_metrics) = run();
    let _ = std::fs::remove_dir_all(&dir);
    assert!(cold_metrics.contains("\"store.manifest_hits\": 0"), "{cold_metrics}");
    assert!(warm_metrics.contains("\"store.manifest_hits\": 1"), "{warm_metrics}");
    assert!(cold_dot.contains("digraph valueflow") && cold_dot.contains("n0 -> n1"), "{cold_dot}");
    assert_eq!(warm_dot, cold_dot, "a replayed run draws the same graphs");
}

#[test]
fn unknown_flag_exits_2_and_prints_usage() {
    let out = safeflow().arg("--bogus").output().expect("runs");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown flag `--bogus`"), "{err}");
    assert!(err.contains("USAGE"), "argument errors must print usage:\n{err}");
}

#[test]
fn removed_sharding_inputs_are_usage_errors() {
    let dir = std::env::temp_dir().join(format!("safeflow_cli_removed_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("f.c");
    std::fs::write(&path, "int main() { return 0; }").unwrap();
    let file = path.to_str().unwrap();
    let store = dir.join("store");
    let store = store.to_str().unwrap();
    for args in [
        vec!["check", "--shards", "2", file],
        vec!["shard-worker", "--shard", "0", "--shards", "2", "--store", store, file],
    ] {
        let out = safeflow().args(&args).output().expect("runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} must not analyze anything");
        let err = String::from_utf8_lossy(&out.stderr);
        let first = err.lines().next().unwrap_or_default();
        assert!(first.starts_with("safeflow: unknown flag `--shard"), "{args:?}: {err}");
        assert!(err.contains("USAGE"), "{args:?}: {err}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn jobs_zero_exits_2_and_prints_usage() {
    let out = safeflow().args(["--jobs", "0", "--fig2"]).output().expect("runs");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--jobs"), "{err}");
    assert!(err.contains("USAGE"), "{err}");
}

/// `--jobs` has one parser: the plain run, `check`, `oracle` and `serve`
/// reject a zero thread count with the same one-line error.
#[test]
fn jobs_zero_is_the_same_error_in_every_subcommand() {
    let expected = "safeflow: --jobs takes a positive integer or `auto`, got \"0\"";
    for args in [
        &["--jobs", "0", "--fig2"][..],
        &["check", "--jobs", "0", "f.c"],
        &["oracle", "--jobs", "0"],
        &["serve", "--jobs", "0"],
    ] {
        let out = safeflow().args(args).output().expect("runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(err.lines().next(), Some(expected), "{args:?}: {err}");
    }
}

#[test]
fn trailing_value_flags_exit_2_and_print_usage() {
    for flag in ["--budget", "--inject", "--fault-seed", "--jobs", "--engine", "--format"] {
        let out = safeflow().args(["--fig2", flag]).output().expect("runs");
        assert_eq!(out.status.code(), Some(2), "trailing {flag} must exit 2");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("USAGE"), "trailing {flag} must print usage:\n{err}");
    }
}

#[test]
fn metrics_flag_appends_metrics_block() {
    let out = safeflow().args(["--fig2", "--metrics"]).output().expect("runs");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("-- metrics --"), "{text}");
    assert!(text.contains("counters.report.warnings"), "{text}");
    assert!(text.contains("counters.taint.contexts"), "{text}");
}

#[test]
fn metrics_json_flag_emits_sections() {
    let out = safeflow()
        .args(["--fig2", "--engine", "summary", "--metrics=json"])
        .output()
        .expect("runs");
    let text = String::from_utf8_lossy(&out.stdout);
    for section in ["\"counters\"", "\"work\"", "\"sched\"", "\"dist\"", "\"timings_ns\""] {
        assert!(text.contains(section), "missing {section} in:\n{text}");
    }
    assert!(text.contains("summary.cache_misses"), "{text}");
}

/// Drops the schedule-dependent `metrics` sections (`sched`, `dist`,
/// `timings_ns`) from a rendered `safeflow-report-v1` document. The
/// sections are objects at a fixed indent (4 spaces) of the pretty
/// printer, so a line-based scan is exact.
fn strip_volatile_sections(doc: &str) -> String {
    let mut out = String::new();
    // The indentation of the section being skipped, whose closing brace
    // sits at the same depth.
    let mut skipping: Option<&str> = None;
    for line in doc.lines() {
        if let Some(indent) = skipping {
            if line.strip_prefix(indent).is_some_and(|rest| rest == "}," || rest == "}") {
                skipping = None;
            }
            continue;
        }
        let trimmed = line.trim_start();
        if ["\"sched\":", "\"dist\":", "\"timings_ns\":"].iter().any(|s| trimmed.starts_with(s)) {
            if !trimmed.ends_with("{},") && !trimmed.ends_with("{}") {
                skipping = Some(&line[..line.len() - trimmed.len()]);
            }
            continue;
        }
        out.push_str(line);
        out.push('\n');
    }
    out
}

#[test]
fn format_json_is_byte_identical_across_thread_counts() {
    let run = |jobs: &str| {
        let out = safeflow()
            .args(["--fig2", "--engine", "summary", "--format", "json", "--jobs", jobs])
            .output()
            .expect("runs");
        assert_eq!(out.status.code(), Some(2), "fig2 reports an error");
        let text = String::from_utf8_lossy(&out.stdout).into_owned();
        assert!(text.contains("\"schema\": \"safeflow-report-v1\""), "{text}");
        strip_volatile_sections(&text)
    };
    let reference = run("1");
    assert!(reference.contains("\"summary.cache_misses\""), "{reference}");
    for jobs in ["4", "8"] {
        assert_eq!(run(jobs), reference, "JSON report diverged at --jobs {jobs}");
    }
}

#[test]
fn parse_error_exits_2() {
    let dir = std::env::temp_dir().join("safeflow_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("broken.c");
    std::fs::write(&path, "int main( { return 0; }").unwrap();
    let out = safeflow().arg(path.to_str().unwrap()).output().expect("runs");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn oracle_subcommand_agrees_and_is_byte_identical_across_runs_and_jobs() {
    let run = |jobs: &str| {
        let out =
            safeflow().args(["oracle", "--seeds", "0..32", "--jobs", jobs]).output().expect("runs");
        assert_eq!(out.status.code(), Some(0), "oracle found a divergence");
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let first = run("1");
    assert!(first.contains("32 seed(s), 160 comparison(s), 0 divergence(s)"), "{first}");
    // Byte-identical across repeated runs and across worker-thread counts
    // (the single-threaded reference included — parallel lexing must not
    // perturb FileIds or diagnostic order): the oracle's own output
    // participates in the determinism contract.
    assert_eq!(run("1"), first, "oracle output changed between identical runs");
    assert_eq!(run("2"), first, "oracle output changed with --jobs 2");
    assert_eq!(run("8"), first, "oracle output changed with --jobs 8");
}

#[test]
fn oracle_single_seed_and_minimize_flags_are_accepted() {
    let out = safeflow().args(["oracle", "--seeds", "7", "--minimize"]).output().expect("runs");
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("seeds 7..8"), "{text}");
}

#[test]
fn oracle_rejects_bad_seed_ranges() {
    for bad in [vec!["oracle", "--seeds", "9..3"], vec!["oracle", "--seeds", "x..y"]] {
        let out = safeflow().args(&bad).output().expect("runs");
        assert_eq!(out.status.code(), Some(2), "{bad:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("USAGE"), "{err}");
    }
}

#[test]
fn oracle_help_mentions_subcommand() {
    let out = safeflow().arg("--help").output().expect("runs");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("safeflow oracle --seeds"), "{text}");
}
