//! Schema lock for the checked-in daemon latency artifact.
//!
//! `BENCH_serve.json` at the workspace root is written by `make
//! bench-serve`; its shape and the behavioural claims it records (the warm
//! path beats a cold analysis, a bounded queue sheds cleanly under
//! overload) are locked here.

use safeflow_util::Json;

fn serve_artifact() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json");
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("read {path}: {e} (run `make bench-serve`)"));
    Json::parse(&text).expect("artifact is valid workspace JSON")
}

fn uint(doc: &Json, path: &[&str]) -> u64 {
    let mut cur = doc;
    for key in path {
        cur =
            cur.get(key).unwrap_or_else(|| panic!("missing key `{}` in artifact", path.join(".")));
    }
    match cur {
        Json::UInt(v) => *v,
        Json::Int(v) if *v >= 0 => *v as u64,
        other => panic!("`{}` is not an unsigned integer: {other:?}", path.join(".")),
    }
}

fn string<'j>(doc: &'j Json, path: &[&str]) -> &'j str {
    let mut cur = doc;
    for key in path {
        cur =
            cur.get(key).unwrap_or_else(|| panic!("missing key `{}` in artifact", path.join(".")));
    }
    match cur {
        Json::Str(s) => s.as_str(),
        other => panic!("`{}` is not a string: {other:?}", path.join(".")),
    }
}

/// Checks one latency-stats object: nonzero, coherent percentiles.
fn check_latency(doc: &Json, path: &[&str]) -> (u64, u64) {
    let mut p: Vec<&str> = path.to_vec();
    p.push("p50_ns");
    let p50 = uint(doc, &p);
    *p.last_mut().unwrap() = "p99_ns";
    let p99 = uint(doc, &p);
    *p.last_mut().unwrap() = "min_ns";
    let min = uint(doc, &p);
    *p.last_mut().unwrap() = "max_ns";
    let max = uint(doc, &p);
    assert!(p50 > 0, "{path:?}: zero p50");
    assert!(min <= p50 && p50 <= p99 && p99 <= max, "{path:?}: percentiles out of order");
    (p50, p99)
}

#[test]
fn serve_artifact_matches_schema() {
    let doc = serve_artifact();
    assert_eq!(string(&doc, &["schema"]), "safeflow-bench-trajectory-v1");
    assert_eq!(uint(&doc, &["pr"]), 7);
    assert_eq!(string(&doc, &["bench"]), "serve-latency");
    assert!(!string(&doc, &["label"]).is_empty());
    assert!(uint(&doc, &["samples"]) > 0);
    // Latencies are wall-clock and must be marked schedule-class.
    assert_eq!(string(&doc, &["determinism", "class"]), "Sched");

    let (warm_p50, _) = check_latency(&doc, &["latency", "warm"]);
    let (cold_p50, _) = check_latency(&doc, &["latency", "cold"]);
    // The tentpole's latency claim: the resident warm path beats a cold
    // analysis of the same program, and the recorded ratio agrees.
    assert!(warm_p50 < cold_p50, "warm p50 ({warm_p50}ns) must beat cold p50 ({cold_p50}ns)");
    let speedup = uint(&doc, &["latency", "warm_speedup_pct"]);
    assert!(speedup > 100, "recorded warm speedup must exceed parity, got {speedup}%");
    let expected = (cold_p50.max(1) as u128 * 100 / warm_p50.max(1) as u128) as u64;
    assert_eq!(speedup, expected, "warm_speedup_pct inconsistent with recorded p50s");
}

#[test]
fn serve_artifact_records_clean_overload_shedding() {
    let doc = serve_artifact();
    // The behavioral claim re-asserted from the artifact: offering 4x the
    // queue capacity to a single worker shed at least one request, every
    // request was answered (no hangs), and nothing panicked.
    let capacity = uint(&doc, &["overload", "queue_capacity"]);
    let offered = uint(&doc, &["overload", "offered"]);
    assert!(capacity > 0);
    assert_eq!(offered, 4 * capacity, "the drill must offer 4x the queue capacity");
    let completed = uint(&doc, &["overload", "completed"]);
    let shed = uint(&doc, &["overload", "shed"]);
    assert!(shed >= 1, "a bounded queue under 4x overload must shed");
    assert!(completed >= 1, "shedding everything means the daemon served nothing");
    assert_eq!(completed + shed, uint(&doc, &["overload", "answered"]));
    assert_eq!(uint(&doc, &["overload", "answered"]), offered, "every request gets an answer");
    assert_eq!(uint(&doc, &["overload", "panics_contained"]), 0);
}
