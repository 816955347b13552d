//! # safeflow-bench
//!
//! Benchmark harness regenerating the paper's evaluation (see DESIGN.md §5
//! for the experiment index):
//!
//! * `table1` — full-pipeline analysis time per corpus system (T1);
//! * `engine_scaling` — context-sensitive vs summary engine as call depth
//!   and monitor count grow (S1, the §3.3 complexity discussion);
//! * `monitor_overhead` — simulation with and without run-time taint
//!   tracking (S2, the zero-runtime-overhead motivation in §1);
//! * `solver` — Omega-test obligations of A1/A2 shape (S3);
//! * `parallel_scaling` — the parallel summary engine at 1/2/4/8 threads
//!   (P1, see DESIGN.md "Parallel engine & caching").
//!
//! The harness is std-only (no criterion — the workspace builds offline):
//! each benchmark is warmed up, then timed over enough iterations per
//! sample to amortize clock noise, and the per-iteration median / min /
//! max over the samples is printed.
//!
//! Run with `cargo bench --workspace`; pass a substring to filter
//! benchmarks by name; set `SAFEFLOW_BENCH_QUICK=1` for a fast smoke pass.
//! Per-table outputs are printed by `cargo run -p safeflow-cli -- --table1`.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// A benchmark runner: owns the name filter (from CLI args) and prints
/// one result line per benchmark.
pub struct Harness {
    filter: Option<String>,
    quick: bool,
}

impl Harness {
    /// Builds a harness from the process arguments, ignoring the flags
    /// cargo's bench/test drivers pass (`--bench`, `--test`, ...); the
    /// first non-flag argument becomes a substring name filter.
    pub fn from_args() -> Harness {
        let filter = std::env::args().skip(1).find(|a| !a.starts_with('-'));
        let quick = std::env::var_os("SAFEFLOW_BENCH_QUICK").is_some();
        Harness { filter, quick }
    }

    /// Whether `name` passes the CLI filter.
    pub fn selected(&self, name: &str) -> bool {
        self.filter.as_deref().is_none_or(|f| name.contains(f))
    }

    /// Times `f`, printing per-iteration stats. `samples` is the number of
    /// measured samples (each of enough iterations to last ~5 ms).
    pub fn bench<T>(&self, name: &str, samples: usize, mut f: impl FnMut() -> T) {
        if !self.selected(name) {
            return;
        }
        let samples = if self.quick { samples.min(3) } else { samples.max(2) };

        // Warm up and size the sample: target ~5 ms per sample so the
        // Instant resolution is negligible, capped for slow benchmarks.
        let warm_start = Instant::now();
        black_box(f());
        let once = warm_start.elapsed().max(Duration::from_nanos(50));
        let target = if self.quick { Duration::from_millis(2) } else { Duration::from_millis(5) };
        let iters = (target.as_nanos() / once.as_nanos()).clamp(1, 10_000) as usize;

        let mut per_iter: Vec<Duration> = Vec::with_capacity(samples);
        for _ in 0..samples {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            per_iter.push(start.elapsed() / iters as u32);
        }
        per_iter.sort();
        let median = per_iter[per_iter.len() / 2];
        let min = per_iter[0];
        let max = per_iter[per_iter.len() - 1];
        println!(
            "{name:<56} median {:>12} (min {}, max {}, {iters} it/sample, {samples} samples)",
            fmt_duration(median),
            fmt_duration(min),
            fmt_duration(max),
        );
    }

    /// Times `f` once (no repetition) — for long-running whole-scenario
    /// measurements where repetition is too costly. Returns the duration.
    pub fn bench_once<T>(&self, name: &str, f: impl FnOnce() -> T) -> Option<Duration> {
        if !self.selected(name) {
            return None;
        }
        let start = Instant::now();
        black_box(f());
        let took = start.elapsed();
        println!("{name:<56} single {:>12}", fmt_duration(took));
        Some(took)
    }
}

/// Renders a duration with an adaptive unit (`ns`/`µs`/`ms`/`s`).
pub fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.2} s", ns as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn durations_format_with_adaptive_units() {
        assert_eq!(fmt_duration(Duration::from_nanos(12)), "12 ns");
        assert_eq!(fmt_duration(Duration::from_micros(3)), "3.00 µs");
        assert_eq!(fmt_duration(Duration::from_millis(250)), "250.00 ms");
        assert_eq!(fmt_duration(Duration::from_secs(2)), "2.00 s");
    }

    #[test]
    fn harness_runs_and_filters() {
        let h = Harness { filter: Some("yes".into()), quick: true };
        let mut ran = 0;
        h.bench("yes/selected", 2, || ran += 1);
        assert!(ran > 0);
        let mut skipped = 0;
        h.bench("no/filtered-out", 2, || skipped += 1);
        assert_eq!(skipped, 0);
    }
}
