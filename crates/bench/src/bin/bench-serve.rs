//! Serve latency trajectory bench (`make bench-serve`).
//!
//! Measures the resident daemon's request latency over loopback — the
//! warm path (manifest replay out of the store) against the cold path
//! (full analysis of never-seen content) — and runs a 4× overload drill
//! against a bounded admission queue, emitting `BENCH_serve.json` (schema
//! `safeflow-bench-trajectory-v1`, locked by
//! `crates/bench/tests/bench_schema.rs`).
//!
//! Usage:
//!
//! ```text
//! bench-serve [--out PATH] [--samples N] [--label S]
//! ```
//!
//! Latencies are wall-clock and therefore schedule-class: nothing in the
//! byte-identity contract reads this file. The overload section, by
//! contrast, records a *behavioral* claim — offering 4× the queue
//! capacity to a single worker must shed with `Overloaded` and answer
//! every request — which the schema test re-asserts from the artifact.

use safeflow_serve::{Client, Daemon, RunKind, ServeOptions, Status};
use safeflow_util::Json;
use std::time::Instant;

struct Args {
    out: String,
    samples: usize,
    label: String,
}

fn parse_args() -> Args {
    let mut args = Args {
        out: "BENCH_serve.json".to_string(),
        samples: 200,
        label: "resident daemon, store-backed warm path".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => args.out = it.next().expect("--out PATH"),
            "--samples" => args.samples = it.next().expect("--samples N").parse().expect("number"),
            "--label" => args.label = it.next().expect("--label S"),
            other => panic!("unknown argument `{other}` (try --out/--samples/--label)"),
        }
    }
    if std::env::var("SAFEFLOW_BENCH_QUICK").is_ok() {
        args.samples = args.samples.min(10);
    }
    args.samples = args.samples.max(4);
    args
}

fn fig2_files() -> Vec<(String, String)> {
    vec![("figure2.c".to_string(), safeflow_corpus::figure2_example().to_string())]
}

fn variant_files(v: usize) -> Vec<(String, String)> {
    vec![(
        "figure2.c".to_string(),
        format!("// cold variant {v}\n{}", safeflow_corpus::figure2_example()),
    )]
}

/// `p`-th percentile (nearest-rank) of an unsorted sample set.
fn percentile(ns: &mut [u64], p: f64) -> u64 {
    ns.sort_unstable();
    let rank = ((p / 100.0) * ns.len() as f64).ceil() as usize;
    ns[rank.clamp(1, ns.len()) - 1]
}

fn stats_json(ns: &mut [u64]) -> Json {
    let p50 = percentile(ns, 50.0);
    let p99 = percentile(ns, 99.0);
    let mut o = Json::obj();
    o.set("p50_ns", p50);
    o.set("p99_ns", p99);
    o.set("min_ns", ns[0]);
    o.set("max_ns", ns[ns.len() - 1]);
    o
}

fn main() {
    let args = parse_args();
    let store = std::env::temp_dir().join(format!("safeflow-bench-serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);

    // ---- latency: one daemon, one connection, warm vs cold ----
    let opts = ServeOptions { store_dir: Some(store.clone()), ..ServeOptions::default() };
    let handle = Daemon::start(opts, "127.0.0.1:0").expect("bind");
    let addr = handle.addr().to_string();
    let mut client = Client::connect(&addr, 60_000).expect("connect");

    // Populate the store, then measure pure replay hits.
    let files = fig2_files();
    let first = client.check("figure2.c", &files, 0).expect("first check");
    assert_eq!(first.run, RunKind::Analyzed);
    let mut warm: Vec<u64> = (0..args.samples)
        .map(|_| {
            let t = Instant::now();
            let r = client.check("figure2.c", &files, 0).expect("warm check");
            assert_eq!(r.run, RunKind::Replayed, "warm sample fell off the replay path");
            t.elapsed().as_nanos() as u64
        })
        .collect();

    // Cold path: every request is content the daemon has never seen.
    let cold_samples = (args.samples / 4).max(4);
    let mut cold: Vec<u64> = (0..cold_samples)
        .map(|v| {
            let files = variant_files(v);
            let t = Instant::now();
            let r = client.check("figure2.c", &files, 0).expect("cold check");
            assert_eq!(r.run, RunKind::Analyzed, "cold sample unexpectedly replayed");
            t.elapsed().as_nanos() as u64
        })
        .collect();
    handle.begin_shutdown();
    handle.wait();

    // ---- overload: 4x the queue against a single worker ----
    let queue_capacity = 8usize;
    let offered = 4 * queue_capacity;
    let opts = ServeOptions { workers: 1, queue_capacity, ..ServeOptions::default() };
    let handle = Daemon::start(opts, "127.0.0.1:0").expect("bind");
    let addr = handle.addr().to_string();
    let threads: Vec<_> = (0..offered)
        .map(|v| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                // Distinct content per request: nothing coalesces, every
                // admission is a real queue slot.
                let files = variant_files(1000 + v);
                Client::connect(&addr, 120_000)
                    .expect("connect")
                    .check("figure2.c", &files, 0)
                    .expect("overload check answered")
            })
        })
        .collect();
    let mut completed = 0u64;
    let mut shed = 0u64;
    let mut answered = 0u64;
    for t in threads {
        let resp = t.join().expect("no overload client may hang or die");
        answered += 1;
        match resp.status {
            Status::Overloaded => shed += 1,
            s if s.is_report() => completed += 1,
            s => panic!("unexpected overload status {s:?}"),
        }
    }
    handle.begin_shutdown();
    let snapshot = handle.wait();
    assert!(shed >= 1, "4x overload against a bounded queue must shed");
    assert_eq!(
        snapshot.sched.get("serve.panics_contained").copied().unwrap_or(0),
        0,
        "overload must shed, never panic"
    );
    let _ = std::fs::remove_dir_all(&store);

    // ---- artifact ----
    let mut warm_json = stats_json(&mut warm);
    let warm_p50 = match warm_json.get("p50_ns") {
        Some(Json::UInt(v)) => *v,
        _ => unreachable!(),
    };
    let cold_json = stats_json(&mut cold);
    let cold_p50 = match cold_json.get("p50_ns") {
        Some(Json::UInt(v)) => *v,
        _ => unreachable!(),
    };
    warm_json.set("samples", args.samples as u64);

    let mut doc = Json::obj();
    doc.set("schema", "safeflow-bench-trajectory-v1");
    doc.set("pr", 7u64);
    doc.set("bench", "serve-latency");
    doc.set("label", args.label.clone());
    doc.set("samples", args.samples as u64);
    let mut det = Json::obj();
    det.set("class", "Sched");
    det.set(
        "note",
        "wall-clock loopback latencies; machine- and schedule-dependent, \
         excluded from byte-identity",
    );
    doc.set("determinism", det);

    let mut latency = Json::obj();
    latency.set("warm", warm_json);
    let mut cold_obj = cold_json;
    cold_obj.set("samples", cold_samples as u64);
    latency.set("cold", cold_obj);
    // Whole percent, 100 = parity: the resident warm path's p50 against a
    // cold analysis of the same program.
    latency
        .set("warm_speedup_pct", (cold_p50.max(1) as u128 * 100 / warm_p50.max(1) as u128) as u64);
    doc.set("latency", latency);

    let mut overload = Json::obj();
    overload.set("queue_capacity", queue_capacity as u64);
    overload.set("workers", 1u64);
    overload.set("offered", offered as u64);
    overload.set("completed", completed);
    overload.set("shed", shed);
    overload.set("answered", answered);
    overload.set("panics_contained", 0u64);
    doc.set("overload", overload);

    let rendered = doc.render();
    std::fs::write(&args.out, format!("{rendered}\n")).expect("write artifact");
    println!(
        "bench-serve: warm p50 {warm_p50}ns, cold p50 {cold_p50}ns, \
         overload {offered} offered / {completed} completed / {shed} shed -> {}",
        args.out
    );
}
