//! A lock-cheap metrics registry for the analysis pipeline.
//!
//! One [`Metrics`] value collects everything a run wants to observe —
//! counters, histograms, and wall-clock spans — and classifies each datum
//! by **how deterministic it is**, because the analyzer's byte-identity
//! contract ("same report for any `--jobs` and any cache state") extends
//! to the observability output:
//!
//! * [`Class::Counter`] — invariant across worker counts *and* cache
//!   state: pure functions of the analyzed program (restriction checks,
//!   solver work, taint rounds).
//! * [`Class::Work`] — invariant across worker counts but dependent on
//!   cache state: a warm summary cache skips recomputation, so these move
//!   between cold and warm runs (cache hits/misses, summarize calls,
//!   summary fixpoint rounds).
//! * [`Class::Sched`] — schedule-dependent: pool tasks, ready-queue depths,
//!   busy time summed over workers. Never compared across runs.
//!
//! Wall-clock spans ([`Metrics::time`]) and histograms
//! ([`Metrics::observe`]) land in their own sections (`timings_ns`,
//! `dist`) and are likewise excluded from determinism comparisons.
//!
//! The registry is a single `Mutex` around plain `BTreeMap`s: callers are
//! expected to aggregate locally (e.g. per SCC task) and flush a handful
//! of values per lock acquisition — see [`Metrics::add_many`] — so the
//! lock is cold even under a saturated worker pool.

use crate::json::Json;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// Determinism class of a counter (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Invariant across worker counts and cache state.
    Counter,
    /// Invariant across worker counts; moves with cache state.
    Work,
    /// Schedule-dependent; never compared across runs.
    Sched,
}

/// A summarized histogram: count/sum/min/max plus sixteen power-of-16
/// magnitude buckets (bucket `k` counts observations below `2^(4(k+1))`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Histogram {
    /// Number of observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Smallest observed value (`u64::MAX` when empty).
    pub min: u64,
    /// Largest observed value.
    pub max: u64,
    /// Magnitude buckets (see type docs).
    pub buckets: [u64; 16],
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram { count: 0, sum: 0, min: u64::MAX, max: 0, buckets: [0; 16] }
    }
}

impl Histogram {
    /// Records one observation.
    pub fn observe(&mut self, value: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        let bits = 64 - value.leading_zeros() as usize; // 0..=64
        self.buckets[(bits.saturating_sub(1) / 4).min(15)] += 1;
    }

    fn to_json(self) -> Json {
        let mut o = Json::obj();
        o.set("count", self.count);
        o.set("sum", self.sum);
        o.set("min", if self.count == 0 { 0 } else { self.min });
        o.set("max", self.max);
        o.set("buckets", self.buckets.iter().map(|&b| Json::UInt(b)).collect::<Vec<_>>());
        o
    }
}

#[derive(Debug, Default)]
struct Inner {
    counters: BTreeMap<String, u64>,
    work: BTreeMap<String, u64>,
    sched: BTreeMap<String, u64>,
    dist: BTreeMap<String, Histogram>,
    timings_ns: BTreeMap<String, u64>,
}

/// The metrics registry for one analysis run.
///
/// `&Metrics` is `Sync`; phase code shares it freely with pool tasks.
#[derive(Debug, Default)]
pub struct Metrics {
    inner: Mutex<Inner>,
}

impl Metrics {
    /// Creates an empty registry.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Locks the registry, recovering from poisoning. A contained panic
    /// elsewhere (an isolated SCC fault, a shedding serve worker) must not
    /// take down metrics reporting on drain: every map here is a plain
    /// accumulator, so the worst a poisoned lock hides is the one
    /// increment that panicked mid-flush.
    fn locked(&self) -> std::sync::MutexGuard<'_, Inner> {
        crate::pool::lock_recover(&self.inner)
    }

    /// Adds `n` to the counter `key` in `class`.
    pub fn add(&self, class: Class, key: &str, n: u64) {
        self.add_many(class, &[(key, n)]);
    }

    /// Adds a batch of counter increments under one lock acquisition —
    /// the preferred shape for per-task flushes from pool workers.
    pub fn add_many(&self, class: Class, entries: &[(&str, u64)]) {
        let mut inner = self.locked();
        let map = match class {
            Class::Counter => &mut inner.counters,
            Class::Work => &mut inner.work,
            Class::Sched => &mut inner.sched,
        };
        for &(key, n) in entries {
            *slot(map, key) += n;
        }
    }

    /// Records one observation into the histogram `key` (the `dist`
    /// section; excluded from determinism comparisons).
    pub fn observe(&self, key: &str, value: u64) {
        slot(&mut self.locked().dist, key).observe(value);
    }

    /// Adds `ns` nanoseconds to the span `key` (the `timings_ns`
    /// section; excluded from determinism comparisons).
    pub fn record_ns(&self, key: &str, ns: u64) {
        *slot(&mut self.locked().timings_ns, key) += ns;
    }

    /// Times `f` and records the elapsed wall-clock under the span `key`.
    pub fn time<T>(&self, key: &str, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let r = f();
        self.record_ns(key, t0.elapsed().as_nanos() as u64);
        r
    }

    /// An immutable copy of everything recorded so far.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.locked();
        MetricsSnapshot {
            counters: inner.counters.clone(),
            work: inner.work.clone(),
            sched: inner.sched.clone(),
            dist: inner.dist.clone(),
            timings_ns: inner.timings_ns.clone(),
        }
    }
}

/// The value under `key` in `map`, inserted as the default first. Only a
/// key's first insert allocates its `String`: later calls find it by
/// `&str`.
fn slot<'m, V: Default>(map: &'m mut BTreeMap<String, V>, key: &str) -> &'m mut V {
    if !map.contains_key(key) {
        map.insert(key.to_string(), V::default());
    }
    map.get_mut(key).expect("inserted above")
}

/// A point-in-time copy of a [`Metrics`] registry, ready to render.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// [`Class::Counter`] values, sorted by key.
    pub counters: BTreeMap<String, u64>,
    /// [`Class::Work`] values, sorted by key.
    pub work: BTreeMap<String, u64>,
    /// [`Class::Sched`] values, sorted by key.
    pub sched: BTreeMap<String, u64>,
    /// Histograms, sorted by key.
    pub dist: BTreeMap<String, Histogram>,
    /// Wall-clock spans in nanoseconds, sorted by key.
    pub timings_ns: BTreeMap<String, u64>,
}

impl MetricsSnapshot {
    /// Renders the snapshot as a JSON object with one sub-object per
    /// section, in a fixed order: deterministic sections first
    /// (`counters`, `work`), then the volatile ones (`sched`, `dist`,
    /// `timings_ns`) that consumers strip before byte-comparing runs.
    pub fn to_json(&self) -> Json {
        fn section(map: &BTreeMap<String, u64>) -> Json {
            let mut o = Json::obj();
            for (k, v) in map {
                o.set(k.clone(), *v);
            }
            o
        }
        let mut o = Json::obj();
        o.set("counters", section(&self.counters));
        o.set("work", section(&self.work));
        o.set("sched", section(&self.sched));
        let mut dist = Json::obj();
        for (k, h) in &self.dist {
            dist.set(k.clone(), h.to_json());
        }
        o.set("dist", dist);
        o.set("timings_ns", section(&self.timings_ns));
        o
    }

    /// Renders the snapshot as aligned `section.key  value` text lines,
    /// in the same section order as [`MetricsSnapshot::to_json`].
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let sections: [(&str, &BTreeMap<String, u64>); 4] = [
            ("counters", &self.counters),
            ("work", &self.work),
            ("sched", &self.sched),
            ("timings_ns", &self.timings_ns),
        ];
        for (name, map) in sections {
            for (k, v) in map {
                out.push_str(&format!("{name}.{k}  {v}\n"));
            }
        }
        for (k, h) in &self.dist {
            out.push_str(&format!(
                "dist.{k}  count={} sum={} min={} max={}\n",
                h.count,
                h.sum,
                if h.count == 0 { 0 } else { h.min },
                h.max
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_per_class() {
        let m = Metrics::new();
        m.add(Class::Counter, "a", 1);
        m.add(Class::Counter, "a", 2);
        m.add(Class::Work, "a", 5);
        m.add_many(Class::Sched, &[("s", 1), ("t", 2)]);
        let s = m.snapshot();
        assert_eq!(s.counters["a"], 3);
        assert_eq!(s.work["a"], 5);
        assert_eq!(s.sched["s"], 1);
        assert_eq!(s.sched["t"], 2);
    }

    #[test]
    fn histogram_tracks_bounds_and_buckets() {
        let mut h = Histogram::default();
        h.observe(0);
        h.observe(15);
        h.observe(16);
        h.observe(u64::MAX);
        assert_eq!((h.count, h.min, h.max), (4, 0, u64::MAX));
        assert_eq!(h.buckets[0], 2); // 0 and 15 are below 2^4
        assert_eq!(h.buckets[1], 1); // 16 is below 2^8
        assert_eq!(h.buckets[15], 1);
    }

    #[test]
    fn time_records_span() {
        let m = Metrics::new();
        let out = m.time("phase.x", || 42);
        assert_eq!(out, 42);
        assert!(m.snapshot().timings_ns.contains_key("phase.x"));
    }

    #[test]
    fn json_sections_in_fixed_order() {
        let m = Metrics::new();
        m.add(Class::Counter, "c", 1);
        m.observe("d", 7);
        let json = m.snapshot().to_json();
        let Json::Obj(members) = &json else { panic!() };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["counters", "work", "sched", "dist", "timings_ns"]);
    }

    /// Regression: a panic raised while the registry lock was held used
    /// to poison it, and every later `add`/`snapshot` then panicked on
    /// `unwrap()` — so a single contained fault silenced all metrics
    /// reporting on drain. The registry must recover and keep rendering.
    #[test]
    fn poisoned_registry_still_records_and_renders() {
        let m = Metrics::new();
        m.add(Class::Counter, "before", 1);
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _g = m.inner.lock().unwrap();
            panic!("injected fault while holding the registry lock");
        }));
        assert!(m.inner.is_poisoned());
        m.add(Class::Counter, "after", 2);
        m.observe("d", 3);
        m.record_ns("t", 5);
        let s = m.snapshot();
        assert_eq!(s.counters["before"], 1);
        assert_eq!(s.counters["after"], 2);
        assert_eq!(s.dist["d"].count, 1);
        assert!(s.render_text().contains("counters.after  2"));
        assert!(s.to_json().render().contains("\"after\""));
    }

    #[test]
    fn snapshots_of_equal_runs_compare_equal() {
        let run = || {
            let m = Metrics::new();
            m.add(Class::Counter, "x", 2);
            m.add(Class::Work, "y", 3);
            let mut s = m.snapshot();
            s.timings_ns.clear(); // the only machine-dependent section
            s
        };
        assert_eq!(run(), run());
    }
}
