//! Allocation and peak-memory budgets of a whole cold check.
//!
//! A counting global allocator tallies, per thread, the allocations (and
//! reallocations) made and the bytes live: an allocation adds its size, a
//! deallocation subtracts it and a reallocation adds the difference. A
//! storeless cold `AnalysisSession::check` at one worker runs the
//! frontend, the three analysis phases and the report on the calling
//! thread (every pool runs its tasks there), so the test thread's counts
//! are the whole check's. Each corpus is checked once first, so that the
//! global interner already holds every string.
//!
//! Allocation counts and live bytes are exact and do not depend on the
//! host's load, so they gate the analysis's memory discipline where wall
//! time and RSS cannot.

use safeflow::{AnalysisConfig, AnalysisSession, Engine, SessionOutcome};
use safeflow_corpus::monorepo::{generate_monorepo, total_loc, MonorepoParams};
use safeflow_syntax::VirtualFs;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread allocated and has not freed. A block freed here
    /// but allocated before the measurement began drives it below the
    /// level the measurement started at, never above.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    /// The highest `LIVE` since the last reset.
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

fn count() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

fn add_live(bytes: i64) {
    let live = LIVE.with(|l| {
        l.set(l.get() + bytes);
        l.get()
    });
    PEAK.with(|p| p.set(p.get().max(live)));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters are thread-local `Cell`s whose access neither
// allocates nor panics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded as received; the caller upholds `alloc`'s
        // contract.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            add_live(layout.size() as i64);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        add_live(-(layout.size() as i64));
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from `System` through this allocator, with
        // `layout`; the caller upholds `realloc`'s contract.
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        if !moved.is_null() {
            add_live(new_size as i64 - layout.size() as i64);
        }
        moved
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// What one storeless cold check cost this thread.
struct Cost {
    outcome: SessionOutcome,
    allocations: u64,
    /// The peak of live bytes above the level the check started at.
    peak_bytes: u64,
    /// The corpus's LOC.
    loc: u64,
}

/// Checks the monorepo corpus of `params` twice, storeless at one worker,
/// and measures the second check.
fn cold_check(params: MonorepoParams) -> Cost {
    let files = generate_monorepo(params);
    let loc = total_loc(&files) as u64;
    let mut fs = VirtualFs::new();
    for (name, text) in files {
        fs.add(name, text);
    }
    let config = AnalysisConfig::builder().engine(Engine::Summary).jobs(1).build_config();
    let warm = AnalysisSession::new(config.clone()).check("main.c", &fs).expect("corpus checks");
    assert_eq!(warm.exit_code, 0, "the corpus checks clean");

    let (allocations_before, live_before) = (ALLOCATIONS.with(Cell::get), LIVE.with(Cell::get));
    PEAK.with(|p| p.set(live_before));
    let outcome = AnalysisSession::new(config).check("main.c", &fs).expect("corpus checks");
    let allocations = ALLOCATIONS.with(Cell::get) - allocations_before;
    let peak_bytes = (PEAK.with(Cell::get) - live_before) as u64;
    assert_eq!(outcome.rendered, warm.rendered, "the same report");
    Cost { outcome, allocations, peak_bytes, loc }
}

/// The benchmark corpus: `MonorepoParams::bench()` at 3 stages and 6
/// branches per stage.
fn benchmark_corpus(branches: usize) -> MonorepoParams {
    MonorepoParams { stages: 3, branches, ..MonorepoParams::bench() }
}

#[test]
fn cold_check_allocations_stay_within_budget() {
    let Cost { outcome, allocations, peak_bytes, .. } = cold_check(benchmark_corpus(6));
    assert_eq!(outcome.exit_code, 0);

    // Before the analysis phases reused their buffers: 103,444 allocations.
    // Since the IR's types are interned handles: 34,528. Since lowering
    // clones a definition's annotations once: 34,394.
    assert!(allocations <= 60_000, "a cold check made {allocations} allocations, budget 60000");
    // With a 128-byte `Inst` and boxed types: 12,968,222 bytes. With types
    // interned as 4-byte handles and a 56-byte `Inst`: 9,367,858 (9,367,794
    // with one annotation clone per definition).
    assert!(
        peak_bytes <= 10_500_000,
        "a cold check peaked at {peak_bytes} live bytes, budget 10500000"
    );
}

/// The peak memory per LOC follows the shape of a function, not only the
/// size of the code base: sequential branches, each ending in a φ, cost
/// more per line than straight code. This holds the growth from 6 to 36
/// branches per stage within a factor, so that a per-block or per-φ term
/// that grows faster than the code it describes fails here.
#[test]
fn peak_bytes_per_loc_grow_boundedly_with_branches() {
    let small = cold_check(benchmark_corpus(6));
    let large = cold_check(benchmark_corpus(36));
    let per_loc = |c: &Cost| c.peak_bytes as f64 / c.loc as f64;
    let ratio = per_loc(&large) / per_loc(&small);
    // With boxed types: 1,335 and 1,872 bytes per LOC, a ratio of 1.402.
    // With interned types: 964 and 1,508, a ratio of 1.564: the smaller
    // corpus's peak fell by 28%, the larger one's by 19%.
    assert!(
        ratio <= 1.57,
        "peak bytes per LOC: {:.0} at 6 branches ({} LOC), {:.0} at 36 branches ({} LOC): \
         ratio {ratio:.3}, bound 1.57",
        per_loc(&small),
        small.loc,
        per_loc(&large),
        large.loc
    );
}
