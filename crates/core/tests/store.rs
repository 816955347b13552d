//! Persistent-store lockdown (ISSUE 4): the incremental session must be
//! fast without ever being wrong.
//!
//! * warm and cold runs produce byte-identical reports (stripped per the
//!   observability contract), across `--jobs` too;
//! * a warm no-change run replays — zero SCCs re-analyzed;
//! * editing one unit re-analyzes only the dirty SCC region;
//! * a corrupt/truncated store file degrades to a cold run (never a
//!   panic, never a stale result);
//! * a store-version mismatch invalidates everything;
//! * degraded runs are never persisted;
//! * a session, store or not, hands its summary table from one check to
//!   the next, and a failed check leaves it in place.

use safeflow::{
    AnalysisConfig, AnalysisError, AnalysisSession, Engine, FaultKind, FaultPlan, FaultSite, Json,
    SessionRun,
};
use safeflow_syntax::VirtualFs;
use std::path::PathBuf;

/// A fresh store directory under the system temp dir (unique per test).
fn store_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("safeflow-session-test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

const UTIL_C: &str = r#"
    int monitorVal(int v) {
        if (v > 100) { return 100; }
        if (v < 0) { return 0; }
        return v;
    }
    int helper(int x) { return x + 1; }
"#;

const CORE_C: &str = r#"
    #include "util.c"
    typedef struct { int control; } SHMData;
    SHMData *noncoreCtrl;
    void *shmat(int shmid, void *addr, int flags);
    void kill(int pid, int sig);

    void initComm(void)
    /** SafeFlow Annotation shminit */
    {
        noncoreCtrl = (SHMData *) shmat(0, 0, 0);
        /** SafeFlow Annotation
            assume(shmvar(noncoreCtrl, sizeof(SHMData)))
            assume(noncore(noncoreCtrl))
        */
    }

    int main() {
        int raw;
        int pid;
        initComm();
        raw = noncoreCtrl->control;
        pid = helper(raw);
        kill(pid, 9);
        return 0;
    }
"#;

fn two_unit_fs(util_src: &str) -> VirtualFs {
    let mut fs = VirtualFs::new();
    fs.add("core.c", CORE_C);
    fs.add("util.c", util_src);
    fs
}

fn config(jobs: usize) -> AnalysisConfig {
    AnalysisConfig::builder().engine(Engine::Summary).jobs(jobs).build_config()
}

/// Strips the schedule-dependent metric sections, and additionally the
/// cache-state-dependent parts when comparing warm against cold.
fn stripped(doc: &Json, across_cache_states: bool) -> String {
    let mut doc = doc.clone();
    let Json::Obj(members) = &mut doc else { panic!("report document must be an object") };
    if across_cache_states {
        members.retain(|(k, _)| k != "cache");
    }
    for (k, v) in members.iter_mut() {
        if k == "metrics" {
            let Json::Obj(sections) = v else { panic!("metrics must be an object") };
            sections.retain(|(k, _)| {
                k != "sched"
                    && k != "dist"
                    && k != "timings_ns"
                    && (!across_cache_states || k != "work")
            });
        }
    }
    doc.render()
}

#[test]
fn warm_and_cold_runs_are_byte_identical_across_jobs() {
    let dir = store_dir("identity");
    let fs = two_unit_fs(UTIL_C);

    let mut cold_session = AnalysisSession::with_store(config(1), &dir).unwrap();
    let cold = cold_session.check("core.c", &fs).unwrap();
    assert_eq!(cold.run, SessionRun::Analyzed);
    assert_eq!(cold.exit_code, 2, "program has a real error");
    drop(cold_session); // release the store's writer lock before reopening

    for jobs in [1usize, 4, 8] {
        let mut warm_session = AnalysisSession::with_store(config(jobs), &dir).unwrap();
        let warm = warm_session.check("core.c", &fs).unwrap();
        assert_eq!(warm.run, SessionRun::Replayed, "jobs={jobs}: unchanged input must replay");
        // The rendered text report is byte-identical with no stripping at
        // all; the JSON document under the warm/cold stripping contract.
        assert_eq!(warm.rendered, cold.rendered, "jobs={jobs}");
        assert_eq!(
            stripped(&warm.report_json, true),
            stripped(&cold.report_json, true),
            "jobs={jobs}"
        );
        // Counter-class metrics replay verbatim — cache-state-invariant.
        assert_eq!(warm.metrics.counters, cold.metrics.counters, "jobs={jobs}");
        let _ = std::fs::remove_dir_all(&dir);
        // Re-create for the next jobs value.
        let mut re = AnalysisSession::with_store(config(1), &dir).unwrap();
        re.check("core.c", &fs).unwrap();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A replayed check draws its text from the stored report subtree, so it
/// prints the analyzed text byte for byte: the v2 label lines of a labeled
/// program, and the frontend warnings of a program that has some.
#[test]
fn replayed_text_matches_analyzed_text_with_labels_and_diagnostics() {
    let policy = include_str!("../../../examples/policy/mixed_criticality.c");
    let arity = "int f(int a) { return a; }\nint main() { return f(1, 2); }\n";
    for (name, src, needle) in [
        ("mixed_criticality.c", policy, "(label `"),
        ("arity.c", arity, "warning: too many arguments to `f`"),
    ] {
        for engine in [Engine::Summary, Engine::ContextSensitive] {
            let dir = store_dir(&format!("replay-text-{engine:?}-{name}"));
            let mut fs = VirtualFs::new();
            fs.add(name, src);
            let config = AnalysisConfig::with_engine(engine);
            let mut session = AnalysisSession::with_store(config, &dir).unwrap();
            let cold = session.check(name, &fs).unwrap();
            let warm = session.check(name, &fs).unwrap();
            assert_eq!(cold.run, SessionRun::Analyzed, "{name} ({engine:?})");
            assert_eq!(warm.run, SessionRun::Replayed, "{name} ({engine:?})");
            assert!(cold.rendered.contains(needle), "{name} ({engine:?}):\n{}", cold.rendered);
            assert_eq!(warm.rendered, cold.rendered, "{name} ({engine:?})");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

#[test]
fn flag_order_does_not_affect_warm_hit_behavior_or_report_bytes() {
    use safeflow::{CriticalCall, RecvSpec};
    let dir = store_dir("flag-order");
    let fs = two_unit_fs(UTIL_C);

    // The same configuration, spelled with the list-valued flags in two
    // different orders. A warm `safeflow check` must replay either way.
    let forward = AnalysisConfig::builder()
        .engine(Engine::Summary)
        .critical_call(CriticalCall::new("reboot", 1))
        .recv_function(RecvSpec::new("recvfrom", 0, 1))
        .recv_function(RecvSpec::new("mq_receive", 0, 1))
        .build_config();
    let mut backward = AnalysisConfig::builder()
        .engine(Engine::Summary)
        .recv_function(RecvSpec::new("mq_receive", 0, 1))
        .recv_function(RecvSpec::new("recvfrom", 0, 1))
        .build_config();
    // Insert the extra critical call *before* the default `kill` entry so
    // even the pre-normalization vectors disagree on order.
    backward.implicit_critical_calls.insert(0, CriticalCall::new("reboot", 1));
    let backward = backward.normalized();

    let cold = AnalysisSession::with_store(forward, &dir).unwrap().check("core.c", &fs).unwrap();
    assert_eq!(cold.run, SessionRun::Analyzed);

    let mut warm_session = AnalysisSession::with_store(backward, &dir).unwrap();
    let warm = warm_session.check("core.c", &fs).unwrap();
    assert_eq!(warm.run, SessionRun::Replayed, "flag order must not miss warm replay");
    assert_eq!(warm.rendered, cold.rendered);
    assert_eq!(stripped(&warm.report_json, true), stripped(&cold.report_json, true));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn warm_no_change_run_reanalyzes_zero_sccs() {
    let dir = store_dir("replay");
    let fs = two_unit_fs(UTIL_C);
    AnalysisSession::with_store(config(4), &dir).unwrap().check("core.c", &fs).unwrap();

    let mut warm = AnalysisSession::with_store(config(4), &dir).unwrap();
    let outcome = warm.check("core.c", &fs).unwrap();
    assert_eq!(outcome.run, SessionRun::Replayed);
    assert_eq!(outcome.metrics.work.get("store.manifest_hits"), Some(&1));
    // Replay never touches the summary engine: no summarize calls, no
    // cache probes, nothing re-analyzed.
    assert_eq!(outcome.metrics.work.get("summary.summarize_calls"), None);
    assert_eq!(outcome.metrics.work.get("summary.cache_misses"), None);
    assert!(outcome.result.is_none(), "replayed runs build no module");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn editing_one_unit_reanalyzes_only_the_dirty_region() {
    let dir = store_dir("dirty");
    let mut cold = AnalysisSession::with_store(config(1), &dir).unwrap();
    let before = cold.check("core.c", &two_unit_fs(UTIL_C)).unwrap();
    let total = before.metrics.work["summary.cache_misses"];
    assert!(total >= 4, "expected at least 4 SCCs, got {total}");
    drop(cold); // release the store's writer lock before reopening

    // Edit `helper` only: its SCC and its caller `main` are dirty;
    // `monitorVal` and `initComm` must replay from the on-disk table in a
    // brand-new session (a different "process" as far as the cache goes).
    let edited = two_unit_fs(&UTIL_C.replace("x + 1", "x + 2"));
    let mut warm = AnalysisSession::with_store(config(1), &dir).unwrap();
    let after = warm.check("core.c", &edited).unwrap();
    assert_eq!(after.run, SessionRun::Analyzed);
    assert_eq!(after.metrics.work["summary.cache_misses"], 2, "helper + main only");
    assert!(after.metrics.work["summary.cache_hits"] >= 2, "clean SCCs must hit");
    assert_eq!(after.metrics.work["store.sccs_invalidated"], 2, "stale hashes dropped");
    // Counter-class metrics never move with cache state.
    assert_eq!(before.metrics.counters, after.metrics.counters);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A replay reads no summary: the store keeps its SCC table encoded. The
/// first analyzed check of a reopened session decodes all of it into its
/// prior table, and a later check decodes nothing more.
#[test]
fn stored_summaries_are_decoded_only_when_a_check_analyzes() {
    let dir = store_dir("lazy");
    let fs = two_unit_fs(UTIL_C);
    let cold = AnalysisSession::with_store(config(1), &dir).unwrap().check("core.c", &fs).unwrap();
    assert_eq!(cold.metrics.work["store.sccs_decoded"], 0, "a fresh store holds nothing");
    let saved = cold.metrics.work["store.sccs_saved"];
    assert!(saved >= 4, "expected at least 4 SCCs, got {saved}");

    let mut session = AnalysisSession::with_store(config(1), &dir).unwrap();
    let replayed = session.check("core.c", &fs).unwrap();
    assert_eq!(replayed.run, SessionRun::Replayed);
    assert_eq!(replayed.metrics.work["store.sccs_decoded"], 0);
    assert_eq!(replayed.metrics.work["store.sccs_loaded"], saved);

    let first = session.check("core.c", &two_unit_fs(&UTIL_C.replace("x + 1", "x + 2"))).unwrap();
    assert_eq!(first.run, SessionRun::Analyzed);
    assert_eq!(first.metrics.work["store.sccs_decoded"], saved);
    assert_eq!(first.metrics.work["summary.cache_misses"], 2, "the decoded table seeds the run");
    let second = session.check("core.c", &two_unit_fs(&UTIL_C.replace("x + 1", "x + 3"))).unwrap();
    assert_eq!(second.run, SessionRun::Analyzed);
    assert_eq!(second.metrics.work["store.sccs_decoded"], 0);
    assert_eq!(second.metrics.work["summary.cache_misses"], 2);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A store file whose checksum holds but whose SCC table does not decode
/// passes open and still replays its whole manifests; the first analyzed
/// check finds the damage, rejects the store and runs cold.
#[test]
fn malformed_stored_summaries_reject_the_store_when_a_check_analyzes() {
    let dir = store_dir("malformed-sccs");
    let fs = two_unit_fs(UTIL_C);
    let cold = AnalysisSession::with_store(config(1), &dir).unwrap().check("core.c", &fs).unwrap();
    // One byte of trailing garbage after the SCC table, re-checksummed.
    let path = dir.join("safeflow-store.bin");
    let mut bytes = std::fs::read(&path).unwrap();
    bytes.truncate(bytes.len() - 8);
    bytes.push(0);
    let sum = safeflow_util::hash::hash_bytes(&bytes);
    bytes.extend_from_slice(&sum.to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();

    let mut session = AnalysisSession::with_store(config(1), &dir).unwrap();
    let replayed = session.check("core.c", &fs).unwrap();
    assert_eq!(replayed.run, SessionRun::Replayed);
    assert_eq!(replayed.rendered, cold.rendered);

    let edited = two_unit_fs(&UTIL_C.replace("x + 1", "x + 2"));
    let reference = AnalysisSession::new(config(1)).check("core.c", &edited).unwrap();
    let outcome = session.check("core.c", &edited).unwrap();
    assert_eq!(outcome.run, SessionRun::Analyzed);
    assert_eq!(outcome.metrics.work.get("store.load_rejected"), Some(&1));
    assert_eq!(outcome.metrics.work["store.sccs_loaded"], 0);
    assert_eq!(outcome.metrics.work["store.sccs_decoded"], 0);
    assert_eq!(outcome.metrics.work["summary.cache_hits"], 0, "nothing survives the rejection");
    assert_eq!(outcome.rendered, reference.rendered);
    assert_eq!(stripped(&outcome.report_json, true), stripped(&reference.report_json, true));
    drop(session);

    // The check rewrote the store whole.
    let mut session = AnalysisSession::with_store(config(1), &dir).unwrap();
    let warm = session.check("core.c", &edited).unwrap();
    assert_eq!(warm.run, SessionRun::Replayed);
    assert_eq!(warm.metrics.work.get("store.load_rejected"), None);
    let _ = std::fs::remove_dir_all(&dir);
}

/// An analyzed check times its own layers, frontend, the teardown of the
/// AST and module, rendering and store save included; a replayed one only
/// its total. All of it lives in
/// `timings_ns`, which every byte-identity comparison strips.
#[test]
fn analyzed_checks_time_their_frontend_render_and_save() {
    let dir = store_dir("timings");
    let fs = two_unit_fs(UTIL_C);
    let mut session = AnalysisSession::with_store(config(1), &dir).unwrap();
    let cold = session.check("core.c", &fs).unwrap();
    assert_eq!(cold.run, SessionRun::Analyzed);
    for key in [
        "store.load_ns",
        "phase.preprocess",
        "phase.parse",
        "phase.lower",
        "phase.ssa",
        "phase.drop",
        "phase.shmptr",
        "phase.points_to",
        "phase.value_flow",
        "engine.scc_hash_ns",
        "report.render_ns",
        "store.save_ns",
        "session.check_ns",
    ] {
        assert!(cold.metrics.timings_ns.contains_key(key), "analyzed check lacks `{key}`");
    }
    let warm = session.check("core.c", &fs).unwrap();
    assert_eq!(warm.run, SessionRun::Replayed);
    let keys: Vec<&str> = warm.metrics.timings_ns.keys().map(String::as_str).collect();
    assert_eq!(
        keys,
        ["session.check_ns", "store.load_ns"],
        "a replay loads the store, and parses, analyzes and saves nothing"
    );
    let storeless = AnalysisSession::new(config(1)).check("core.c", &fs).unwrap();
    assert!(!storeless.metrics.timings_ns.contains_key("store.load_ns"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_or_truncated_store_degrades_to_cold_run() {
    let dir = store_dir("corrupt");
    let fs = two_unit_fs(UTIL_C);
    let reference =
        AnalysisSession::with_store(config(1), &dir).unwrap().check("core.c", &fs).unwrap();
    let path = dir.join("safeflow-store.bin");
    let good = std::fs::read(&path).unwrap();

    let mut variants: Vec<Vec<u8>> = Vec::new();
    for i in [0usize, good.len() / 3, good.len() / 2, good.len() - 1] {
        let mut bad = good.clone();
        bad[i] ^= 0xff;
        variants.push(bad);
    }
    for cut in [0usize, 7, good.len() / 2, good.len() - 1] {
        variants.push(good[..cut].to_vec());
    }
    variants.push(b"not a store file at all".to_vec());

    for (i, bytes) in variants.iter().enumerate() {
        std::fs::write(&path, bytes).unwrap();
        let mut session = AnalysisSession::with_store(config(1), &dir).unwrap();
        let outcome = session.check("core.c", &fs).unwrap();
        assert_eq!(outcome.run, SessionRun::Analyzed, "variant {i}: damaged store must run cold");
        assert_eq!(outcome.metrics.work.get("store.sccs_loaded"), Some(&0), "variant {i}");
        if !bytes.is_empty() {
            assert_eq!(outcome.metrics.work.get("store.load_rejected"), Some(&1), "variant {i}");
        }
        // Never stale: the cold result matches the pristine reference.
        assert_eq!(outcome.rendered, reference.rendered, "variant {i}");
        assert_eq!(
            stripped(&outcome.report_json, true),
            stripped(&reference.report_json, true),
            "variant {i}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn version_mismatch_invalidates_everything() {
    let dir = store_dir("version");
    let fs = two_unit_fs(UTIL_C);
    AnalysisSession::with_store(config(1), &dir).unwrap().check("core.c", &fs).unwrap();
    let path = dir.join("safeflow-store.bin");
    let mut bytes = std::fs::read(&path).unwrap();
    // Bump the version field (after the 8-byte magic) and fix the trailing
    // checksum so *only* the version mismatches.
    let magic_len = 8;
    let v = u32::from_le_bytes(bytes[magic_len..magic_len + 4].try_into().unwrap()) + 1;
    bytes[magic_len..magic_len + 4].copy_from_slice(&v.to_le_bytes());
    let body = bytes.len() - 8;
    let sum = safeflow_util::hash::hash_bytes(&bytes[..body]);
    bytes[body..].copy_from_slice(&sum.to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();

    let mut session = AnalysisSession::with_store(config(1), &dir).unwrap();
    let outcome = session.check("core.c", &fs).unwrap();
    assert_eq!(outcome.run, SessionRun::Analyzed);
    assert_eq!(outcome.metrics.work.get("store.sccs_loaded"), Some(&0));
    assert_eq!(outcome.metrics.work["summary.cache_hits"], 0, "nothing may survive a version bump");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn leftover_files_from_older_binaries_are_ignored() {
    let dir = store_dir("leftover");
    let fs = two_unit_fs(UTIL_C);
    let cold = AnalysisSession::with_store(config(1), &dir).unwrap().check("core.c", &fs).unwrap();
    let saved = cold.metrics.work["store.sccs_saved"];

    // An append-only summary file as older binaries wrote beside the
    // store: magic, format version, then one checksummed well-formed
    // record (key 42, no summaries). Reading it would add an SCC entry.
    let mut payload = 42u64.to_le_bytes().to_vec();
    payload.extend_from_slice(&0u32.to_le_bytes());
    let mut leftover = b"SFSEG\0\0\0".to_vec();
    leftover.extend_from_slice(&2u32.to_le_bytes());
    leftover.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    leftover.extend_from_slice(&payload);
    leftover.extend_from_slice(&safeflow_util::hash::hash_bytes(&payload).to_le_bytes());
    let path = dir.join("seg-4242-0.bin");
    std::fs::write(&path, &leftover).unwrap();

    let mut warm = AnalysisSession::with_store(config(1), &dir).unwrap();
    let replayed = warm.check("core.c", &fs).unwrap();
    assert_eq!(replayed.run, SessionRun::Replayed);
    assert_eq!(replayed.rendered, cold.rendered);
    assert_eq!(stripped(&replayed.report_json, true), stripped(&cold.report_json, true));
    assert_eq!(replayed.metrics.work["store.sccs_loaded"], saved, "the leftover is not read");
    drop(warm);

    // A full run over the same directory neither rejects the store nor
    // touches the leftover when it saves.
    let edited = two_unit_fs(&UTIL_C.replace("x + 1", "x + 2"));
    let mut session = AnalysisSession::with_store(config(1), &dir).unwrap();
    let after = session.check("core.c", &edited).unwrap();
    assert_eq!(after.run, SessionRun::Analyzed);
    assert_eq!(after.metrics.work.get("store.load_rejected"), None);
    assert_eq!(after.metrics.work["store.sccs_loaded"], saved);
    assert_eq!(std::fs::read(&path).unwrap(), leftover, "the leftover is left alone");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn degraded_runs_are_never_persisted_and_fault_plans_disable_the_store() {
    let dir = store_dir("degraded");
    let fs = two_unit_fs(UTIL_C);
    // A budget fault injected into every SCC degrades the run (exit 4).
    let degraded_config = AnalysisConfig::builder()
        .engine(Engine::Summary)
        .fault_plan(FaultPlan::new().with_fault(
            FaultSite::SccAnalysis,
            None,
            FaultKind::BudgetExhaustion,
        ))
        .build_config();
    let mut session = AnalysisSession::with_store(degraded_config.clone(), &dir).unwrap();
    let outcome = session.check("core.c", &fs).unwrap();
    assert_eq!(outcome.exit_code, 4);
    // The armed plan disables persistence wholesale: no store file exists.
    assert!(!dir.join("safeflow-store.bin").exists(), "degraded results must not be stored");
    assert_eq!(outcome.metrics.work.get("store.manifest_misses"), None);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A storeless session owns the summary table between checks: the second
/// check of one program re-summarizes nothing and renders the same report,
/// and a failed check leaves the table as it was — one that fails to parse,
/// and one whose annotation error surfaces only after the phases have run.
#[test]
fn a_storeless_session_keeps_its_table_across_checks_and_failures() {
    let fs = two_unit_fs(UTIL_C);
    let mut unparsable = VirtualFs::new();
    unparsable.add("bad.c", "int main( { return 0; }");
    let mut bad_region = two_unit_fs(UTIL_C);
    bad_region.add("core.c", CORE_C.replace("sizeof(SHMData))", "0)"));
    let mut session = AnalysisSession::new(config(1));
    let misses = |o: &safeflow::SessionOutcome| o.metrics.work["summary.cache_misses"];

    let cold = session.check("core.c", &fs).unwrap();
    assert!(misses(&cold) > 0, "the first check summarizes from an empty table");
    let warm = session.check("core.c", &fs).unwrap();
    assert_eq!(warm.run, SessionRun::Analyzed);
    assert_eq!(misses(&warm), 0, "the second check reuses the first one's table");
    assert_eq!(warm.rendered, cold.rendered);

    for (root, failing) in [("bad.c", &unparsable), ("core.c", &bad_region)] {
        let err = session.check(root, failing).unwrap_err();
        assert!(matches!(err, AnalysisError::Parse { .. }), "{root}: {err}");
        let after = session.check("core.c", &fs).unwrap();
        assert_eq!(misses(&after), 0, "{root}: a failed check must leave the table in place");
        assert_eq!(after.rendered, cold.rendered);
    }
}

#[test]
fn session_io_errors_are_typed_with_sources() {
    let mut session = AnalysisSession::new(config(1));
    let missing = "/nonexistent/safeflow/input.c".to_string();
    match session.check_files(std::slice::from_ref(&missing)) {
        Err(e @ AnalysisError::Io { .. }) => {
            assert!(std::error::Error::source(&e).is_some(), "Io must chain its source");
            assert!(e.to_string().contains("input.c"));
        }
        other => panic!("expected AnalysisError::Io, got {other:?}"),
    }
}

#[test]
fn parse_errors_from_sessions_carry_diagnostics() {
    let mut fs = VirtualFs::new();
    fs.add("bad.c", "int main( { return 0; }");
    let mut session = AnalysisSession::new(config(1));
    match session.check("bad.c", &fs) {
        Err(e @ AnalysisError::Parse { .. }) => {
            assert!(e.diagnostics().unwrap().has_errors());
        }
        other => panic!("expected AnalysisError::Parse, got {other:?}"),
    }
}
