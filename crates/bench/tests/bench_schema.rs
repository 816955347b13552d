//! Schema lock for the checked-in frontend perf-trajectory artifact
//! (ISSUE 6 satellite).
//!
//! `BENCH_pr6.json` at the workspace root is the first entry in the
//! recorded LOC/sec perf history, and `BENCH_pr9.json` the last: both are
//! frozen records of a since-retired frontend bench, so their shape is
//! locked here: required keys, integer timing fields, min ≤ median ≤ max
//! ordering, and the embedded pre-refactor baseline with its e2e speedup
//! ratio.

use safeflow_util::Json;

fn artifact() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pr6.json");
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        panic!("read {path}: {e} (a checked-in historical record; restore it from git)")
    });
    Json::parse(&text).expect("artifact is valid workspace JSON")
}

fn pr9_artifact() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pr9.json");
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        panic!("read {path}: {e} (a checked-in historical record; restore it from git)")
    });
    Json::parse(&text).expect("artifact is valid workspace JSON")
}

fn pr10_artifact() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pr10.json");
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        panic!("read {path}: {e} (a checked-in historical record; restore it from git)")
    });
    Json::parse(&text).expect("artifact is valid workspace JSON")
}

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

/// Checks one stage object: integer timings, coherent ordering, a
/// nonzero throughput consistent with the corpus LOC.
fn check_stage(doc: &Json, stage_path: &[&str], loc: u64) {
    let mut p: Vec<&str> = stage_path.to_vec();
    p.push("median_ns");
    let median = uint(doc, &p);
    *p.last_mut().unwrap() = "min_ns";
    let min = uint(doc, &p);
    *p.last_mut().unwrap() = "max_ns";
    let max = uint(doc, &p);
    *p.last_mut().unwrap() = "loc_per_sec";
    let rate = uint(doc, &p);
    assert!(median > 0, "{stage_path:?}: zero median");
    assert!(min <= median && median <= max, "{stage_path:?}: min/median/max out of order");
    // loc_per_sec is derived from the median; recompute and compare.
    let expected = (loc as u128 * 1_000_000_000 / median as u128) as u64;
    assert_eq!(rate, expected, "{stage_path:?}: loc_per_sec inconsistent with median_ns");
}

#[test]
fn trajectory_artifact_matches_schema() {
    let doc = artifact();
    assert_eq!(string(&doc, &["schema"]), "safeflow-bench-trajectory-v1");
    assert_eq!(uint(&doc, &["pr"]), 6);
    assert_eq!(string(&doc, &["bench"]), "frontend-e2e");
    assert!(!string(&doc, &["label"]).is_empty());
    assert!(uint(&doc, &["samples"]) > 0);

    let loc = uint(&doc, &["corpus", "loc"]);
    assert!(loc > 0, "corpus must have countable LOC");
    assert!(uint(&doc, &["corpus", "programs"]) > 0);
    assert!(uint(&doc, &["corpus", "raw_lines"]) >= loc);

    // Wall-clock numbers are schedule-class by construction and must say so.
    assert_eq!(string(&doc, &["determinism", "class"]), "Sched");

    for stage in ["parse", "lower_ssa", "e2e"] {
        check_stage(&doc, &["stages", stage], loc);
    }
}

#[test]
fn trajectory_artifact_records_pre_refactor_baseline_and_speedup() {
    let doc = artifact();
    // The PR-6 artifact embeds the pre-refactor run: same corpus, same
    // stage shape, plus the end-to-end speedup ratio in whole percent
    // (100 = parity). The refactor claim is that the arena + interning
    // frontend is measurably faster, so the recorded ratio must exceed
    // parity.
    let base_loc = uint(&doc, &["baseline", "corpus", "loc"]);
    assert_eq!(base_loc, uint(&doc, &["corpus", "loc"]), "baseline must use the same corpus");
    for stage in ["parse", "lower_ssa", "e2e"] {
        check_stage(&doc, &["baseline", "stages", stage], base_loc);
    }
    let speedup = uint(&doc, &["speedup_e2e_pct"]);
    assert!(
        speedup > 100,
        "recorded e2e speedup must beat the pre-refactor baseline, got {speedup}%"
    );
}

#[test]
fn pr9_artifact_continues_the_trajectory() {
    let doc = pr9_artifact();
    assert_eq!(string(&doc, &["schema"]), "safeflow-bench-trajectory-v1");
    assert_eq!(uint(&doc, &["pr"]), 9);
    assert_eq!(string(&doc, &["bench"]), "frontend-e2e");
    assert!(!string(&doc, &["label"]).is_empty());
    assert_eq!(string(&doc, &["determinism", "class"]), "Sched");

    // The classic-corpus stages stay comparable with the PR 7 artifact.
    let loc = uint(&doc, &["corpus", "loc"]);
    assert!(loc > 0);
    for stage in ["parse", "lower_ssa", "e2e"] {
        check_stage(&doc, &["stages", stage], loc);
    }
}

#[test]
fn pr9_artifact_records_the_monorepo_column() {
    let doc = pr9_artifact();
    // The ISSUE 8 acceptance floor: a >=100-TU, >=100k-LOC monorepo run
    // completed by the frontend bench.
    let tus = uint(&doc, &["monorepo", "tus"]);
    assert!(tus >= 100, "monorepo column needs >=100 TUs, recorded {tus}");
    let loc = uint(&doc, &["monorepo", "loc"]);
    assert!(loc >= 100_000, "monorepo column needs >=100k LOC, recorded {loc}");
    assert!(uint(&doc, &["monorepo", "files"]) >= tus);
    assert!(uint(&doc, &["monorepo", "raw_lines"]) >= loc);
    for stage in ["parse_j1", "parse_j8", "e2e"] {
        check_stage(&doc, &["monorepo", "stages", stage], loc);
    }
    // The ratio is recorded (it may honestly sit below parity: the
    // monorepo is one root TU, so workers only parallelize lexing while
    // inclusion and macro expansion replay sequentially).
    let ratio = uint(&doc, &["monorepo", "parallel_parse_speedup_pct"]);
    assert!(ratio > 0);
    let j1 = uint(&doc, &["monorepo", "stages", "parse_j1", "median_ns"]);
    let j8 = uint(&doc, &["monorepo", "stages", "parse_j8", "median_ns"]);
    assert_eq!(ratio, j1 * 100 / j8.max(1), "ratio inconsistent with recorded medians");
}

#[test]
fn pr10_artifact_records_shard_scaling() {
    let doc = pr10_artifact();
    assert_eq!(string(&doc, &["schema"]), "safeflow-bench-trajectory-v1");
    assert_eq!(uint(&doc, &["pr"]), 10);
    assert_eq!(string(&doc, &["bench"]), "shard-scaling");
    assert!(!string(&doc, &["label"]).is_empty());
    assert!(uint(&doc, &["samples"]) > 0);
    assert!(uint(&doc, &["jobs_per_worker"]) > 0);
    assert_eq!(string(&doc, &["determinism", "class"]), "Sched");

    // Same monorepo floor as the ISSUE 8 column: >=100 TUs, >=100k LOC.
    let tus = uint(&doc, &["corpus", "tus"]);
    assert!(tus >= 100, "shard bench needs >=100 TUs, recorded {tus}");
    let loc = uint(&doc, &["corpus", "loc"]);
    assert!(loc >= 100_000, "shard bench needs >=100k LOC, recorded {loc}");
    assert!(uint(&doc, &["corpus", "files"]) >= tus);
    assert!(uint(&doc, &["corpus", "raw_lines"]) >= loc);

    // The baseline column plus the 1/2/4-worker fan-out columns.
    for stage in ["unsharded", "shard_1", "shard_2", "shard_4"] {
        check_stage(&doc, &["stages", stage], loc);
    }

    // Scaling ratios are recorded and consistent with the medians. They
    // may honestly sit below parity — on a host with fewer cores than
    // workers the fan-out is pure duplication — so the lock is on
    // coherence, not on a speedup claim.
    assert!(uint(&doc, &["scaling", "host_cpus"]) >= 1);
    let one = uint(&doc, &["stages", "shard_1", "median_ns"]);
    for (key, stage) in [("shard_2_speedup_pct", "shard_2"), ("shard_4_speedup_pct", "shard_4")] {
        let ratio = uint(&doc, &["scaling", key]);
        let n = uint(&doc, &["stages", stage, "median_ns"]);
        assert!(ratio > 0);
        assert_eq!(ratio, one * 100 / n.max(1), "{key} inconsistent with recorded medians");
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
