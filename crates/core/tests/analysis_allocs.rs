//! Allocation budget of a whole cold check of the benchmark corpus.
//!
//! A counting global allocator tallies the allocations (and reallocations)
//! this test's thread makes during one storeless cold
//! `AnalysisSession::check` at one worker: the frontend, the three analysis
//! phases and the report. At one worker every pool runs its tasks on the
//! calling thread, so the count is the whole check's. The corpus is checked
//! once first, so that the global interner already holds every string.
//!
//! Allocation counts are exact and do not depend on the host's load, so
//! they gate the analysis's memory discipline where wall time cannot. The
//! budget sits above the count the reused buffers and the interned IR names
//! give (38,123) and far below the one before them: a change that goes back
//! to fresh fact tables or control dependences per function fails here.

use safeflow::{AnalysisConfig, AnalysisSession, Engine};
use safeflow_corpus::monorepo::{generate_monorepo, MonorepoParams};
use safeflow_syntax::VirtualFs;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter is a thread-local `Cell` whose access neither
// allocates nor panics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded as received; the caller upholds `alloc`'s
        // contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from `System` through this allocator, with
        // `layout`; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn cold_check_allocations_stay_within_budget() {
    let mut fs = VirtualFs::new();
    for (name, text) in
        generate_monorepo(MonorepoParams { stages: 3, branches: 6, ..MonorepoParams::bench() })
    {
        fs.add(name, text);
    }
    let config = AnalysisConfig::builder().engine(Engine::Summary).jobs(1).build_config();
    let warm = AnalysisSession::new(config.clone()).check("main.c", &fs).expect("corpus checks");
    assert_eq!(warm.exit_code, 0, "the corpus checks clean");

    let before = ALLOCATIONS.with(Cell::get);
    let cold = AnalysisSession::new(config).check("main.c", &fs).expect("corpus checks");
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    assert_eq!(cold.rendered, warm.rendered, "the same report");

    // Before the analysis phases reused their buffers: 103,444 allocations.
    assert!(allocations <= 60_000, "a cold check made {allocations} allocations, budget 60000");
}
