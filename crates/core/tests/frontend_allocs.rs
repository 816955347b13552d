//! Allocation budget of the frontend on the benchmark corpus.
//!
//! A counting global allocator tallies the allocations (and reallocations)
//! this test's thread makes while the corpus is preprocessed, parsed,
//! lowered and promoted to SSA. Allocation counts are exact and do not
//! depend on the host's load, so they gate the frontend's memory discipline
//! where wall time cannot. The corpus is run through once first, so that
//! the global interner already holds every string and only the frontend's
//! own buffers are counted.
//!
//! The bounds sit above the counts the reused buffers give and far below
//! the ones before them: a change that reintroduces a per-operand, per-
//! frame or per-expansion allocation, an owned string per IR name or a
//! boxed type per pointer or array, fails here.

use safeflow_corpus::monorepo::{generate_monorepo, MonorepoParams};
use safeflow_syntax::diag::Diagnostics;
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

/// Allocations this thread makes while running `f`.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

#[test]
fn frontend_allocations_stay_within_budget() {
    let mut fs = VirtualFs::new();
    for (name, text) in
        generate_monorepo(MonorepoParams { stages: 3, branches: 6, ..MonorepoParams::bench() })
    {
        fs.add(name, text);
    }
    let frontend = || {
        let pre = safeflow_syntax::preprocess_program_jobs("main.c", &fs, 1);
        let parsed = safeflow_syntax::parse_preprocessed(pre);
        assert!(parsed.is_ok(), "the corpus parses: {:?}", parsed.diags);
        let mut diags = Diagnostics::new();
        safeflow_ir::lower::lower(&parsed.unit, &mut diags)
    };
    let mut module = frontend();
    safeflow_ir::ssa::promote_module(&mut module);

    let (pre, preprocess) =
        allocations(|| safeflow_syntax::preprocess_program_jobs("main.c", &fs, 1));
    let parsed = safeflow_syntax::parse_preprocessed(pre);
    let (mut module, lower) =
        allocations(|| safeflow_ir::lower::lower(&parsed.unit, &mut Diagnostics::new()));
    let defined = module.definitions().count() as u64;
    let (_, promote) = allocations(|| safeflow_ir::ssa::promote_module(&mut module));

    // Before the pp buffers were reused: 34,671 allocations per pass.
    assert!(preprocess <= 6_000, "preprocessing made {preprocess} allocations, budget 6000");
    // Before the IR named things by `Symbol`: 16,901 allocations, one
    // `String` per function, parameter, alloca and global name among them.
    // Before types were interned handles: 12,549, with a boxed `Type` per
    // pointer and array type built. Then 8,983, with each annotated
    // definition's annotation list cloned twice. Now 8,849.
    assert!(lower <= 10_000, "lowering made {lower} allocations, budget 10000");
    // Before mem2reg's state was dense and reused: 141,880 allocations
    // over 418 functions, 339 per function.
    assert!(
        promote <= 25 * defined,
        "promote_module made {promote} allocations over {defined} functions, budget 25 each"
    );
}
