//! A thread pool with dependency-DAG scheduling and one shared ready queue.
//!
//! [`run_dag`] executes `n` tasks subject to a dependency relation: task
//! `i` may start only after every task in `deps[i]` has completed. All
//! scheduling state sits under one mutex: a min-heap of ready tasks, the
//! remaining-dependency counts, the result slots and the running/done
//! tallies. Each worker pops the lowest-index ready task, runs it with the
//! lock released, then publishes its result and releases its dependents;
//! a worker with nothing to do waits on a condition variable. With
//! `jobs == 1` the caller's thread runs the same loop and nothing is
//! spawned, so the one-worker schedule is the ascending-index topological
//! order.
//!
//! Results are returned **indexed by task**, so the output is a pure
//! function of the task closure — independent of worker count and
//! scheduling order. This is what the analysis engine's determinism
//! guarantee rests on: parallelism changes only *when* a task runs, never
//! *what* is returned.
//!
//! A panicking task is contained: its slot holds `Err(TaskPanic)`, its
//! dependents still run, and every independent task completes normally.
//! Containment is what lets the analysis engine degrade one SCC or one
//! function instead of losing the whole run; callers that cannot degrade
//! re-raise the lowest-index panic, which is the same at every `jobs`.

use crate::metrics::{Class, Metrics};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

/// Schedule-dependent execution statistics for pool runs.
///
/// A caller-owned `PoolStats` accumulates across runs. Every field here
/// depends on thread timing, so these numbers are **not** covered by the
/// pool's determinism guarantee — they belong in a report's
/// schedule-class metrics section, never in byte-compared output.
#[derive(Debug, Default)]
pub struct PoolStats {
    /// Tasks executed.
    pub tasks: AtomicU64,
    /// High-water mark of the ready queue's depth.
    pub max_queue_depth: AtomicU64,
    /// Total wall-clock nanoseconds spent inside task closures, summed
    /// over all workers.
    pub busy_ns: AtomicU64,
}

impl PoolStats {
    /// Flushes the stats into `metrics` as `<prefix>.tasks` and
    /// `<prefix>.max_queue_depth` ([`Class::Sched`]) and the span
    /// `<prefix>.busy_ns`.
    pub fn record(&self, metrics: &Metrics, prefix: &str) {
        let (tasks, depth) = (format!("{prefix}.tasks"), format!("{prefix}.max_queue_depth"));
        metrics.add_many(
            Class::Sched,
            &[
                (&tasks, self.tasks.load(Ordering::Relaxed)),
                (&depth, self.max_queue_depth.load(Ordering::Relaxed)),
            ],
        );
        metrics.record_ns(&format!("{prefix}.busy_ns"), self.busy_ns.load(Ordering::Relaxed));
    }
}

/// A contained task panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskPanic {
    /// Index of the task that panicked.
    pub index: usize,
    /// The panic payload rendered by [`panic_message`].
    pub message: String,
}

/// Locks `m`, recovering the guard when a panicking thread poisoned it.
///
/// Only for mutexes whose state a panic cannot leave logically torn, so
/// that one contained fault does not cascade into every later `unwrap`.
pub fn lock_recover<U>(m: &Mutex<U>) -> std::sync::MutexGuard<'_, U> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Renders a panic payload as a deterministic string: `&str` / `String`
/// payloads are preserved verbatim, anything else becomes a fixed
/// placeholder. Exposed so other crates containing panics themselves
/// (e.g. via `catch_unwind`) normalize messages the same way.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs `n = deps.len()` tasks respecting `deps` (a DAG: `deps[i]` are the
/// task indices that must complete before task `i` starts), on `jobs`
/// workers, one of which is the caller's thread. Returns the task results
/// indexed by task; a task that panicked yields `Err(TaskPanic)`.
/// Execution statistics accumulate into `stats`.
///
/// # Panics
///
/// Panics if `deps` contains an out-of-range index or a dependency cycle.
pub fn run_dag<T, F>(
    jobs: usize,
    deps: &[Vec<usize>],
    stats: &PoolStats,
    task: F,
) -> Vec<Result<T, TaskPanic>>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let n = deps.len();
    let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, ds) in deps.iter().enumerate() {
        for &d in ds {
            assert!(d < n, "run_dag: dependency index {d} out of range (n = {n})");
            dependents[d].push(i);
        }
    }
    let pool = Pool {
        state: Mutex::new(State {
            ready: (0..n).filter(|&i| deps[i].is_empty()).map(Reverse).collect(),
            remaining: deps.iter().map(Vec::len).collect(),
            results: (0..n).map(|_| None).collect(),
            running: 0,
            done: 0,
        }),
        wake: Condvar::new(),
        dependents,
        stats,
        task,
    };
    std::thread::scope(|scope| {
        for _ in 1..jobs.clamp(1, n.max(1)) {
            scope.spawn(|| pool.work());
        }
        pool.work();
    });
    let state = pool.state.into_inner().unwrap_or_else(|e| e.into_inner());
    assert!(state.done == n, "run_dag: dependency cycle ({}/{n} tasks ran)", state.done);
    state.results.into_iter().map(|r| r.expect("completed task has a result")).collect()
}

/// Runs `n` independent tasks on `jobs` workers ([`run_dag`] with no
/// dependencies). Results are indexed by task.
pub fn run_map<T, F>(jobs: usize, n: usize, stats: &PoolStats, task: F) -> Vec<Result<T, TaskPanic>>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    run_dag(jobs, &vec![Vec::new(); n], stats, task)
}

/// A sensible default worker count for this machine.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1)
}

/// Scheduling state shared by the workers of one [`run_dag`] call.
struct State<T> {
    /// Ready tasks, lowest index first.
    ready: BinaryHeap<Reverse<usize>>,
    /// Unfinished dependencies per task.
    remaining: Vec<usize>,
    results: Vec<Option<Result<T, TaskPanic>>>,
    /// Tasks currently executing (with the lock released).
    running: usize,
    done: usize,
}

struct Pool<'a, T, F> {
    state: Mutex<State<T>>,
    wake: Condvar,
    dependents: Vec<Vec<usize>>,
    stats: &'a PoolStats,
    task: F,
}

impl<T, F> Pool<'_, T, F>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    /// The worker loop. Returns once nothing is ready and nothing is
    /// running: either every task ran, or the rest wait on a cycle (which
    /// [`run_dag`] reports after the join).
    fn work(&self) {
        let mut st = lock_recover(&self.state);
        loop {
            let Some(Reverse(i)) = st.ready.pop() else {
                if st.running == 0 {
                    return;
                }
                st = self.wake.wait(st).unwrap_or_else(|e| e.into_inner());
                continue;
            };
            self.stats.max_queue_depth.fetch_max(st.ready.len() as u64 + 1, Ordering::Relaxed);
            st.running += 1;
            drop(st);

            let t0 = Instant::now();
            let outcome = catch_unwind(AssertUnwindSafe(|| (self.task)(i)))
                .map_err(|p| TaskPanic { index: i, message: panic_message(&*p) });
            self.stats.tasks.fetch_add(1, Ordering::Relaxed);
            self.stats.busy_ns.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);

            st = lock_recover(&self.state);
            st.results[i] = Some(outcome);
            st.running -= 1;
            st.done += 1;
            // A panicked task still releases its dependents: they run and
            // see the caller's side channel for the missing result.
            let mut released = 0;
            for &j in &self.dependents[i] {
                st.remaining[j] -= 1;
                if st.remaining[j] == 0 {
                    st.ready.push(Reverse(j));
                    released += 1;
                }
            }
            // This worker takes one released task itself; wake a waiter
            // for each of the others, and everyone once the run is over.
            if st.running == 0 && st.ready.is_empty() {
                self.wake.notify_all();
            } else {
                for _ in 1..released {
                    self.wake.notify_one();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    fn values<T: std::fmt::Debug>(out: Vec<Result<T, TaskPanic>>) -> Vec<T> {
        out.into_iter().map(Result::unwrap).collect()
    }

    #[test]
    fn map_returns_indexed_results() {
        for jobs in [1, 2, 4, 8] {
            let out = values(run_map(jobs, 100, &PoolStats::default(), |i| i * i));
            assert_eq!(out.len(), 100);
            for (i, v) in out.iter().enumerate() {
                assert_eq!(*v, i * i, "jobs = {jobs}");
            }
        }
    }

    #[test]
    fn dag_respects_dependencies() {
        // Chain 0 -> 1 -> 2 -> ... : each task observes its predecessor's
        // completion flag.
        let n = 64;
        let deps: Vec<Vec<usize>> =
            (0..n).map(|i| if i == 0 { vec![] } else { vec![i - 1] }).collect();
        for jobs in [1, 3, 8] {
            let flags: Vec<AtomicBool> = (0..n).map(|_| AtomicBool::new(false)).collect();
            let out = run_dag(jobs, &deps, &PoolStats::default(), |i| {
                if i > 0 {
                    assert!(flags[i - 1].load(Ordering::SeqCst), "dep of {i} not done");
                }
                flags[i].store(true, Ordering::SeqCst);
                i
            });
            assert_eq!(values(out), (0..n).collect::<Vec<_>>());
        }
    }

    #[test]
    fn diamond_and_fan_shapes() {
        // 0 -> {1..=8} -> 9.
        let mut deps = vec![vec![]];
        for _ in 0..8 {
            deps.push(vec![0]);
        }
        deps.push((1..=8).collect());
        let sum_at_join = values(run_dag(4, &deps, &PoolStats::default(), |i| i));
        assert_eq!(sum_at_join.iter().sum::<usize>(), (0..=9).sum());
    }

    #[test]
    fn parallel_matches_sequential() {
        let deps: Vec<Vec<usize>> =
            (0..50).map(|i| (0..i).filter(|d| i % (d + 2) == 0).collect()).collect();
        let run = |jobs| run_dag(jobs, &deps, &PoolStats::default(), |i| i * 3 + 1);
        let seq = run(1);
        for jobs in [2, 4, 7] {
            assert_eq!(run(jobs), seq);
        }
    }

    /// One worker pops the lowest-index ready task every time: 3 and 4
    /// become ready only after 0 finishes, yet run before 5 and 6.
    #[test]
    fn single_worker_runs_lowest_ready_index_first() {
        let deps = vec![vec![], vec![3], vec![], vec![0], vec![0], vec![], vec![]];
        let order = Mutex::new(Vec::new());
        run_dag(1, &deps, &PoolStats::default(), |i| order.lock().unwrap().push(i));
        assert_eq!(order.into_inner().unwrap(), vec![0, 2, 3, 1, 4, 5, 6]);
    }

    #[test]
    fn empty_dag() {
        let out: Vec<Result<usize, _>> = run_dag(4, &[], &PoolStats::default(), |i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn isolated_panic_is_contained() {
        // 0 -> 1 -> 2 with 1 panicking: 0 and 2 still run, 1 is an Err.
        let deps = vec![vec![], vec![0], vec![1]];
        for jobs in [1, 2, 4] {
            let out = run_dag(jobs, &deps, &PoolStats::default(), |i| {
                if i == 1 {
                    panic!("scc 1 exploded");
                }
                i * 10
            });
            assert_eq!(out[0].as_ref().unwrap(), &0, "jobs = {jobs}");
            let e = out[1].as_ref().unwrap_err();
            assert_eq!((e.index, e.message.as_str()), (1, "scc 1 exploded"));
            assert_eq!(out[2].as_ref().unwrap(), &20, "dependent of panicked task must run");
        }
    }

    #[test]
    fn isolated_results_independent_of_jobs() {
        let deps: Vec<Vec<usize>> =
            (0..40).map(|i| (0..i).filter(|d| i % (d + 2) == 0).collect()).collect();
        let run = |jobs| {
            run_dag(jobs, &deps, &PoolStats::default(), |i| {
                if i % 7 == 3 {
                    panic!("task {i} down");
                }
                i * 2
            })
        };
        let seq = run(1);
        for jobs in [2, 4, 8] {
            assert_eq!(run(jobs), seq);
        }
    }

    #[test]
    fn isolated_nonstring_payload_is_normalized() {
        let out = run_dag(1, &[vec![]], &PoolStats::default(), |_| -> usize {
            std::panic::panic_any(42i32)
        });
        assert_eq!(out[0].as_ref().unwrap_err().message, "non-string panic payload");
    }

    #[test]
    #[should_panic(expected = "run_dag: dependency cycle (1/3 tasks ran)")]
    fn cycle_detected_sequential() {
        let deps = [vec![1], vec![0], vec![]];
        run_dag(1, &deps, &PoolStats::default(), |i| i);
    }

    #[test]
    #[should_panic(expected = "run_dag: dependency cycle (1/3 tasks ran)")]
    fn cycle_detected_parallel() {
        let deps = [vec![1], vec![0], vec![]];
        run_dag(4, &deps, &PoolStats::default(), |i| i);
    }

    #[test]
    fn stats_count_tasks_and_queue_depth() {
        let stats = PoolStats::default();
        run_map(1, 5, &stats, |i| i);
        run_map(3, 5, &stats, |i| i);
        assert_eq!(stats.tasks.load(Ordering::Relaxed), 10);
        assert_eq!(stats.max_queue_depth.load(Ordering::Relaxed), 5);
        let metrics = Metrics::new();
        stats.record(&metrics, "pool.x");
        let snap = metrics.snapshot();
        let keys: Vec<&str> = snap.sched.keys().map(String::as_str).collect();
        assert_eq!(keys, ["pool.x.max_queue_depth", "pool.x.tasks"]);
        assert_eq!(snap.sched["pool.x.tasks"], 10);
        assert!(snap.timings_ns.contains_key("pool.x.busy_ns"));
    }

    #[test]
    fn lock_recover_survives_poisoning() {
        let q: Mutex<Vec<usize>> = Mutex::new(vec![7]);
        let _ = catch_unwind(AssertUnwindSafe(|| {
            let _g = q.lock().unwrap();
            panic!("injected fault while holding the lock");
        }));
        assert!(q.is_poisoned());
        assert_eq!(lock_recover(&q).pop(), Some(7));
        lock_recover(&q).push(9);
        assert_eq!(lock_recover(&q).pop(), Some(9));
    }

    /// Many concurrent panicking tasks at several worker counts: the
    /// containment path (result publication, dependent release) must fill
    /// every slot.
    #[test]
    fn panic_storm_fills_every_slot() {
        let deps: Vec<Vec<usize>> =
            (0..64).map(|i| (0..i).filter(|d| i % (d + 2) == 0).collect()).collect();
        for jobs in [2, 4, 8] {
            let out = run_dag(jobs, &deps, &PoolStats::default(), |i| {
                if i % 2 == 0 {
                    panic!("task {i} down");
                }
                i
            });
            assert_eq!(out.len(), 64, "jobs = {jobs}");
            for (i, r) in out.iter().enumerate() {
                assert_eq!(r.is_err(), i % 2 == 0, "jobs = {jobs}, task {i}");
            }
        }
    }
}
