//! A work-stealing thread pool with dependency-DAG scheduling.
//!
//! [`run_dag`] executes `n` tasks subject to a dependency relation: task
//! `i` may start only after every task in `deps[i]` has completed. Ready
//! tasks are distributed over per-worker deques; an idle worker first pops
//! from its own deque (LIFO, for locality — a task it just unblocked), then
//! steals from the other workers' deques (FIFO, taking the oldest work),
//! then parks on a condition variable until new work is enqueued or the
//! run completes.
//!
//! Results are returned **indexed by task**, so the output is a pure
//! function of the task closure — independent of worker count, scheduling
//! order, and steal interleavings. This is what the analysis engine's
//! determinism guarantee rests on: parallelism changes only *when* a task
//! runs, never *what* is returned.
//!
//! Panics inside tasks are handled according to a [`PoolPolicy`]:
//! [`run_dag`] uses [`PoolPolicy::Propagate`] (fail-stop: remaining tasks
//! are abandoned, all workers drain, and the panic is re-raised on the
//! caller's thread), while [`run_dag_isolated`] uses
//! [`PoolPolicy::Isolate`] (the panicking task is recorded as a
//! [`TaskPanic`] in its result slot, its dependents still run, and every
//! independent task completes normally). Isolation is what lets the
//! analysis engine contain a fault to one SCC instead of losing the whole
//! run.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

/// Schedule-dependent execution statistics for pool runs.
///
/// A caller-owned `PoolStats` passed to the `_observed` entry points
/// accumulates across runs. Every field here depends on thread timing and
/// steal interleavings, so these numbers are **not** covered by the pool's
/// determinism guarantee — they belong in a report's schedule-class
/// metrics section, never in byte-compared output.
#[derive(Debug, Default)]
pub struct PoolStats {
    /// Tasks executed.
    pub tasks: AtomicU64,
    /// Successful steals (a worker taking a task from another's deque).
    pub steals: AtomicU64,
    /// High-water mark of any single worker's queue depth.
    pub max_queue_depth: AtomicU64,
    /// Total wall-clock nanoseconds spent inside task closures, summed
    /// over all workers.
    pub busy_ns: AtomicU64,
}

impl PoolStats {
    fn note_depth(&self, depth: u64) {
        self.max_queue_depth.fetch_max(depth, Ordering::Relaxed);
    }

    fn record_task(&self, busy_ns: u64) {
        self.tasks.fetch_add(1, Ordering::Relaxed);
        self.busy_ns.fetch_add(busy_ns, Ordering::Relaxed);
    }
}

/// What the pool does when a task panics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolPolicy {
    /// Fail-stop: abandon remaining tasks and re-raise the panic on the
    /// caller's thread (the historical [`run_dag`] behavior).
    Propagate,
    /// Contain: record the panic as a [`TaskPanic`] in the task's result
    /// slot and keep going — dependents and independent tasks still run.
    Isolate,
}

/// A contained task panic (see [`PoolPolicy::Isolate`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskPanic {
    /// Index of the task that panicked.
    pub index: usize,
    /// The panic payload rendered as a string (`&str` / `String` payloads
    /// are preserved verbatim; anything else becomes a fixed placeholder
    /// so reports stay deterministic).
    pub message: String,
}

/// Locks `m`, recovering the guard when a panicking task poisoned it.
///
/// Only for mutexes whose state a panic cannot leave logically torn. The
/// pool's own guard plain scheduling state (deques of task indices, result
/// slots, the park token), and panic containment ([`PoolPolicy::Isolate`])
/// requires every other worker to keep draining the run rather than
/// cascade the poison into its own `unwrap`.
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
/// worker threads. Returns the task results indexed by task.
///
/// With `jobs <= 1` the tasks run sequentially on the caller's thread in
/// a deterministic topological order (ready tasks by ascending index) —
/// the reference schedule the parallel runs must agree with.
///
/// # Panics
///
/// Panics if `deps` contains an out-of-range index or a dependency cycle,
/// or if a task panics (the task's panic is propagated).
pub fn run_dag<T, F>(jobs: usize, deps: &[Vec<usize>], task: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    run_dag_inner(jobs, deps, PoolPolicy::Propagate, None, task)
        .into_iter()
        .map(|r| r.expect("Propagate policy re-raises panics before returning"))
        .collect()
}

/// Like [`run_dag`], but with [`PoolPolicy::Isolate`]: a panicking task is
/// recorded as `Err(TaskPanic)` in its result slot instead of aborting the
/// run. Dependents of a panicked task still run (they observe whatever
/// side channel the caller uses to publish results — under this pool the
/// only signal is the `Err` slot), and all independent tasks complete
/// normally.
///
/// The returned vector is still a pure function of the task closure and
/// the panic set — independent of worker count and scheduling, so the
/// determinism guarantee survives containment.
pub fn run_dag_isolated<T, F>(
    jobs: usize,
    deps: &[Vec<usize>],
    task: F,
) -> Vec<Result<T, TaskPanic>>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    run_dag_inner(jobs, deps, PoolPolicy::Isolate, None, task)
}

/// [`run_dag_isolated`] accumulating execution statistics into `stats`.
/// The returned results are unaffected by observation.
pub fn run_dag_isolated_observed<T, F>(
    jobs: usize,
    deps: &[Vec<usize>],
    stats: &PoolStats,
    task: F,
) -> Vec<Result<T, TaskPanic>>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    run_dag_inner(jobs, deps, PoolPolicy::Isolate, Some(stats), task)
}

fn run_dag_inner<T, F>(
    jobs: usize,
    deps: &[Vec<usize>],
    policy: PoolPolicy,
    stats: Option<&PoolStats>,
    task: F,
) -> Vec<Result<T, TaskPanic>>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let n = deps.len();
    if n == 0 {
        return Vec::new();
    }
    for ds in deps {
        for &d in ds {
            assert!(d < n, "run_dag: dependency index {d} out of range (n = {n})");
        }
    }
    let jobs = jobs.max(1).min(n);
    if jobs == 1 {
        return run_sequential(deps, policy, stats, task);
    }
    // Workers park while waiting for dependencies; a cyclic "DAG" would
    // park them forever. Reject it up front (cheap Kahn pass).
    assert_acyclic(deps);

    let dependents = invert(deps);
    let remaining: Vec<AtomicUsize> = deps.iter().map(|d| AtomicUsize::new(d.len())).collect();
    let queues: Vec<Mutex<VecDeque<usize>>> =
        (0..jobs).map(|_| Mutex::new(VecDeque::new())).collect();
    let results: Vec<Mutex<Option<Result<T, TaskPanic>>>> =
        (0..n).map(|_| Mutex::new(None)).collect();

    // Seed: initially-ready tasks round-robin over the workers.
    {
        let mut w = 0;
        for (i, ds) in deps.iter().enumerate() {
            if ds.is_empty() {
                lock_recover(&queues[w]).push_back(i);
                w = (w + 1) % jobs;
            }
        }
    }

    let shared = Shared {
        dependents: &dependents,
        remaining: &remaining,
        queues: &queues,
        results: &results,
        done: AtomicUsize::new(0),
        total: n,
        idle: Mutex::new(()),
        wake: Condvar::new(),
        panic: Mutex::new(None),
        policy,
        stats,
    };

    std::thread::scope(|scope| {
        for w in 0..jobs {
            let shared = &shared;
            let task = &task;
            scope.spawn(move || worker(w, jobs, shared, task));
        }
    });

    if let Some(payload) = shared.panic.into_inner().unwrap_or_else(|e| e.into_inner()) {
        resume_unwind(payload);
    }
    let completed = shared.done.load(Ordering::SeqCst);
    assert_eq!(completed, n, "run_dag: dependency cycle ({completed}/{n} tasks ran)");
    results
        .into_iter()
        .map(|cell| {
            cell.into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .expect("completed task has a result")
        })
        .collect()
}

/// Runs `n` independent tasks on `jobs` workers ([`run_dag`] with no
/// dependencies). Results are indexed by task.
pub fn run_map<T, F>(jobs: usize, n: usize, task: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    run_dag(jobs, &vec![Vec::new(); n], task)
}

/// [`run_map`] accumulating execution statistics into `stats`. The
/// returned results are unaffected by observation.
pub fn run_map_observed<T, F>(jobs: usize, n: usize, stats: &PoolStats, task: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    run_dag_inner(jobs, &vec![Vec::new(); n], PoolPolicy::Propagate, Some(stats), task)
        .into_iter()
        .map(|r| r.expect("Propagate policy re-raises panics before returning"))
        .collect()
}

/// A sensible default worker count for this machine.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1)
}

fn run_sequential<T, F>(
    deps: &[Vec<usize>],
    policy: PoolPolicy,
    stats: Option<&PoolStats>,
    task: F,
) -> Vec<Result<T, TaskPanic>>
where
    F: Fn(usize) -> T,
{
    let n = deps.len();
    let dependents = invert(deps);
    let mut remaining: Vec<usize> = deps.iter().map(Vec::len).collect();
    // Ready tasks processed in ascending index order (min-heap).
    let mut ready: std::collections::BinaryHeap<std::cmp::Reverse<usize>> =
        (0..n).filter(|&i| remaining[i] == 0).map(std::cmp::Reverse).collect();
    let mut results: Vec<Option<Result<T, TaskPanic>>> = (0..n).map(|_| None).collect();
    let mut ran = 0usize;
    while let Some(std::cmp::Reverse(i)) = ready.pop() {
        if let Some(s) = stats {
            s.note_depth(ready.len() as u64 + 1);
        }
        let t0 = Instant::now();
        match catch_unwind(AssertUnwindSafe(|| task(i))) {
            Ok(value) => results[i] = Some(Ok(value)),
            Err(payload) => match policy {
                PoolPolicy::Propagate => resume_unwind(payload),
                PoolPolicy::Isolate => {
                    results[i] =
                        Some(Err(TaskPanic { index: i, message: panic_message(&*payload) }));
                }
            },
        }
        if let Some(s) = stats {
            s.record_task(t0.elapsed().as_nanos() as u64);
        }
        ran += 1;
        for &j in &dependents[i] {
            remaining[j] -= 1;
            if remaining[j] == 0 {
                ready.push(std::cmp::Reverse(j));
            }
        }
    }
    assert_eq!(ran, n, "run_dag: dependency cycle ({ran}/{n} tasks ran)");
    results.into_iter().map(|r| r.unwrap()).collect()
}

fn assert_acyclic(deps: &[Vec<usize>]) {
    let n = deps.len();
    let dependents = invert(deps);
    let mut remaining: Vec<usize> = deps.iter().map(Vec::len).collect();
    let mut ready: Vec<usize> = (0..n).filter(|&i| remaining[i] == 0).collect();
    let mut ran = 0usize;
    while let Some(i) = ready.pop() {
        ran += 1;
        for &j in &dependents[i] {
            remaining[j] -= 1;
            if remaining[j] == 0 {
                ready.push(j);
            }
        }
    }
    assert_eq!(ran, n, "run_dag: dependency cycle ({ran}/{n} tasks reachable)");
}

fn invert(deps: &[Vec<usize>]) -> Vec<Vec<usize>> {
    let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); deps.len()];
    for (i, ds) in deps.iter().enumerate() {
        for &d in ds {
            dependents[d].push(i);
        }
    }
    dependents
}

struct Shared<'a, T> {
    dependents: &'a [Vec<usize>],
    remaining: &'a [AtomicUsize],
    queues: &'a [Mutex<VecDeque<usize>>],
    results: &'a [Mutex<Option<Result<T, TaskPanic>>>],
    done: AtomicUsize,
    total: usize,
    idle: Mutex<()>,
    wake: Condvar,
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    policy: PoolPolicy,
    stats: Option<&'a PoolStats>,
}

impl<T> Shared<'_, T> {
    fn finished(&self) -> bool {
        self.done.load(Ordering::SeqCst) >= self.total
    }

    /// Records a task panic and releases every worker.
    fn abort(&self, payload: Box<dyn std::any::Any + Send>) {
        let mut slot = lock_recover(&self.panic);
        if slot.is_none() {
            *slot = Some(payload);
        }
        drop(slot);
        // Drain: mark the run complete so workers exit their loops.
        self.done.store(self.total, Ordering::SeqCst);
        let _g = lock_recover(&self.idle);
        self.wake.notify_all();
    }
}

fn worker<T, F>(me: usize, jobs: usize, shared: &Shared<'_, T>, task: &F)
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    loop {
        if shared.finished() {
            return;
        }
        // 1. Own deque, newest first (locality: tasks this worker just
        //    unblocked are hot in cache).
        let mut next = lock_recover(&shared.queues[me]).pop_back();
        // 2. Steal oldest work from the other workers.
        if next.is_none() {
            for k in 1..jobs {
                let victim = (me + k) % jobs;
                if let Some(i) = lock_recover(&shared.queues[victim]).pop_front() {
                    if let Some(s) = shared.stats {
                        s.steals.fetch_add(1, Ordering::Relaxed);
                    }
                    next = Some(i);
                    break;
                }
            }
        }
        let Some(i) = next else {
            // 3. Park until new work is enqueued or the run finishes. The
            //    re-check under the idle lock closes the lost-wakeup race:
            //    every enqueue acquires this lock before notifying.
            let mut guard = lock_recover(&shared.idle);
            loop {
                if shared.finished() || shared.queues.iter().any(|q| !lock_recover(q).is_empty()) {
                    break;
                }
                guard = shared.wake.wait(guard).unwrap_or_else(|e| e.into_inner());
            }
            continue;
        };

        let t0 = Instant::now();
        let outcome = match catch_unwind(AssertUnwindSafe(|| task(i))) {
            Ok(value) => Ok(value),
            Err(payload) => match shared.policy {
                PoolPolicy::Propagate => {
                    shared.abort(payload);
                    return;
                }
                PoolPolicy::Isolate => {
                    Err(TaskPanic { index: i, message: panic_message(&*payload) })
                }
            },
        };
        if let Some(s) = shared.stats {
            s.record_task(t0.elapsed().as_nanos() as u64);
        }
        *lock_recover(&shared.results[i]) = Some(outcome);
        // Release dependents whose last dependency this was. Under Isolate
        // a panicked task still releases its dependents: they run and see
        // the `Err` slot instead of being silently abandoned.
        let mut released = false;
        for &j in &shared.dependents[i] {
            if shared.remaining[j].fetch_sub(1, Ordering::AcqRel) == 1 {
                let mut q = lock_recover(&shared.queues[me]);
                q.push_back(j);
                if let Some(s) = shared.stats {
                    s.note_depth(q.len() as u64);
                }
                drop(q);
                released = true;
            }
        }
        let now_done = shared.done.fetch_add(1, Ordering::SeqCst) + 1;
        if released || now_done >= shared.total {
            let _g = lock_recover(&shared.idle);
            shared.wake.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn map_returns_indexed_results() {
        for jobs in [1, 2, 4, 8] {
            let out = run_map(jobs, 100, |i| i * i);
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
            let out = run_dag(jobs, &deps, |i| {
                if i > 0 {
                    assert!(flags[i - 1].load(Ordering::SeqCst), "dep of {i} not done");
                }
                flags[i].store(true, Ordering::SeqCst);
                i
            });
            assert_eq!(out, (0..n).collect::<Vec<_>>());
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
        let sum_at_join: Vec<usize> = run_dag(4, &deps, |i| i);
        assert_eq!(sum_at_join.iter().sum::<usize>(), (0..=9).sum());
    }

    #[test]
    fn parallel_matches_sequential() {
        let deps: Vec<Vec<usize>> =
            (0..50).map(|i| (0..i).filter(|d| i % (d + 2) == 0).collect()).collect();
        let seq = run_dag(1, &deps, |i| i * 3 + 1);
        for jobs in [2, 4, 7] {
            assert_eq!(run_dag(jobs, &deps, |i| i * 3 + 1), seq);
        }
    }

    #[test]
    fn empty_dag() {
        let out: Vec<usize> = run_dag(4, &[], |i| i);
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn task_panic_propagates() {
        run_dag(4, &vec![vec![]; 16], |i| {
            if i == 7 {
                panic!("boom");
            }
            i
        });
    }

    #[test]
    fn isolated_panic_is_contained() {
        // 0 -> 1 -> 2 with 1 panicking: 0 and 2 still run, 1 is an Err.
        let deps = vec![vec![], vec![0], vec![1]];
        for jobs in [1, 2, 4] {
            let out = run_dag_isolated(jobs, &deps, |i| {
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
            run_dag_isolated(jobs, &deps, |i| {
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
        let out = run_dag_isolated(1, &[vec![]], |_| -> usize { std::panic::panic_any(42i32) });
        assert_eq!(out[0].as_ref().unwrap_err().message, "non-string panic payload");
    }

    #[test]
    #[should_panic(expected = "boom-seq")]
    fn task_panic_propagates_sequential() {
        run_dag(1, &vec![vec![]; 4], |i| {
            if i == 2 {
                panic!("boom-seq");
            }
            i
        });
    }

    #[test]
    #[should_panic(expected = "cycle")]
    fn cycle_detected_sequential() {
        let _ = run_dag(1, &[vec![1], vec![0]], |i| i);
    }

    #[test]
    #[should_panic(expected = "cycle")]
    fn cycle_detected_parallel() {
        let _ = run_dag(4, &[vec![1], vec![0], vec![]], |i| i);
    }

    /// Poisons `m` the way a real fault would: a panic raised while the
    /// lock is held.
    fn poison<U>(m: &Mutex<U>) {
        let _ = catch_unwind(AssertUnwindSafe(|| {
            let _g = m.lock().unwrap();
            panic!("injected fault while holding the lock");
        }));
        assert!(m.is_poisoned());
    }

    #[test]
    fn lock_recover_survives_poisoning() {
        let q: Mutex<VecDeque<usize>> = Mutex::new(VecDeque::from([7]));
        poison(&q);
        assert_eq!(lock_recover(&q).pop_back(), Some(7));
        lock_recover(&q).push_back(9);
        assert_eq!(lock_recover(&q).pop_front(), Some(9));
    }

    /// Regression: a poisoned queue mutex used to cascade — the next
    /// worker to probe it panicked on `unwrap()`, poisoning the idle lock
    /// and taking down every parked worker instead of the PR 2
    /// conservative-top degradation. A worker facing a poisoned victim
    /// queue must recover the guard, steal the task, and drain the DAG.
    #[test]
    fn worker_drains_despite_poisoned_queue() {
        let deps: Vec<Vec<usize>> = vec![vec![], vec![0]];
        let dependents = invert(&deps);
        let remaining: Vec<AtomicUsize> = deps.iter().map(|d| AtomicUsize::new(d.len())).collect();
        let queues: Vec<Mutex<VecDeque<usize>>> =
            (0..2).map(|_| Mutex::new(VecDeque::new())).collect();
        // The ready task sits in worker 1's deque, which a fault poisons
        // before worker 0 gets to steal from it.
        queues[1].lock().unwrap().push_back(0);
        poison(&queues[1]);
        let results: Vec<Mutex<Option<Result<usize, TaskPanic>>>> =
            (0..2).map(|_| Mutex::new(None)).collect();
        let shared = Shared {
            dependents: &dependents,
            remaining: &remaining,
            queues: &queues,
            results: &results,
            done: AtomicUsize::new(0),
            total: 2,
            idle: Mutex::new(()),
            wake: Condvar::new(),
            panic: Mutex::new(None),
            policy: PoolPolicy::Isolate,
            stats: None,
        };
        worker(0, 2, &shared, &|i| i * 10);
        assert_eq!(lock_recover(&results[0]).take(), Some(Ok(0)));
        assert_eq!(lock_recover(&results[1]).take(), Some(Ok(10)));
    }

    /// Many concurrent panicking tasks at several worker counts: the
    /// containment machinery (abort/notify, result publication, dependent
    /// release) must fill every slot without a poisoning cascade.
    #[test]
    fn panic_storm_fills_every_slot() {
        let deps: Vec<Vec<usize>> =
            (0..64).map(|i| (0..i).filter(|d| i % (d + 2) == 0).collect()).collect();
        for jobs in [2, 4, 8] {
            let out = run_dag_isolated(jobs, &deps, |i| {
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
