//! Sharded cross-process analysis over the shared summary store.
//!
//! `safeflow check --shards N` partitions the call-graph SCC DAG into N
//! shards and runs each in its own worker process (the hidden
//! `shard-worker` subcommand), all sharing one summary-store directory as
//! the interchange. Workers run *concurrently*, with no inter-shard
//! ordering or coordination channel beyond the store itself:
//!
//! * **Ownership** — SCCs are assigned to shards by deterministic greedy
//!   balancing: visit SCCs in descending instruction-weight order (ties to
//!   the lower SCC index), assigning each to the currently lightest shard
//!   (ties to the lower shard index). Every worker recomputes the same
//!   plan from the same program, so no assignment needs to be exchanged.
//! * **Compute closure** — a worker computes its owned SCCs plus their
//!   transitive dependencies. The closure is dependency-closed, so the
//!   bottom-up pass never reads an unpublished hole; overlap between
//!   closures is the price of zero coordination, and streaming bounds it.
//! * **Streaming** — each worker appends clean owned results to its own
//!   append-only segment file (see [`crate::store`]) as they complete, and
//!   polls peers' segments before recomputing a non-owned SCC. Tainted or
//!   degraded results are never published.
//! * **Merge** — the coordinator re-opens the store exclusively (which
//!   absorbs every valid segment record), runs the final — now warm —
//!   analysis in-process, and compacts the segments away on save.
//!
//! Byte-identity with `--shards 1` falls out structurally rather than by
//! protocol care: summaries are pure functions of their content-hash keys,
//! workers only ever *pre-warm* the cache, and the final report is always
//! produced by the same in-process path an unsharded run uses. A worker
//! that crashes, stalls, or writes a torn record costs recomputation, not
//! correctness: the coordinator's final run recomputes whatever the store
//! ended up missing.

use crate::engine::SummaryCache;
use crate::store::{SegmentScanner, SegmentWriter, SummaryStore};
use crate::summary::{summarize_sccs, ShardRestrict, Summary};
use crate::{compile_policy, regions, shmptr, AnalysisConfig, AnalysisError};
use safeflow_ir::{build_module, CallGraph, Module};
use safeflow_points_to::PointsTo;
use safeflow_syntax::VirtualFs;
use safeflow_util::metrics::Metrics;
use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Deterministic SCC → shard assignment plus one shard's compute closure.
pub(crate) struct ShardPlan {
    /// `owned[i]` — SCC `i` (in [`CallGraph::sccs`] order) is assigned to
    /// this shard; owned clean results are what the worker publishes.
    pub(crate) owned: Vec<bool>,
    /// `closure[i]` — owned, or a transitive dependency of an owned SCC;
    /// the set of SCCs this worker must have summaries for.
    pub(crate) closure: Vec<bool>,
}

/// Builds shard `shard` of `shards`'s plan. See the module docs for the
/// balancing rule; `deps` is [`CallGraph::scc_dependencies`] (every
/// dependency index is smaller than its dependent's, which the closure
/// sweep relies on).
pub(crate) fn plan_shard(
    module: &Module,
    callgraph: &CallGraph,
    deps: &[Vec<usize>],
    shard: usize,
    shards: usize,
) -> ShardPlan {
    let n = callgraph.sccs.len();
    // +1 per function so empty declarations still cost something and no
    // shard collects every weightless SCC.
    let weight = |i: usize| -> u64 {
        callgraph.sccs[i].iter().map(|&f| module.function(f).insts.len() as u64 + 1).sum()
    };
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(weight(i)), i));
    let mut load = vec![0u64; shards.max(1)];
    let mut owned = vec![false; n];
    for &i in &order {
        let bin = (0..load.len()).min_by_key(|&b| (load[b], b)).unwrap_or(0);
        load[bin] += weight(i);
        if bin == shard {
            owned[i] = true;
        }
    }
    // Dependencies always have smaller indices, so one descending sweep
    // closes the owned set transitively.
    let mut closure = owned.clone();
    for i in (0..n).rev() {
        if closure[i] {
            for &d in &deps[i] {
                closure[d] = true;
            }
        }
    }
    ShardPlan { owned, closure }
}

/// What one shard worker did, reported on its stdout for the coordinator's
/// `--verbose` diagnostics. Pure bookkeeping: the coordinator's final run
/// is correct regardless of these numbers.
#[derive(Debug, Default, Clone, Copy)]
pub struct WorkerReport {
    /// SCCs in the program's call graph.
    pub sccs: usize,
    /// SCCs assigned to this shard by the balancing plan.
    pub owned: usize,
    /// Clean results this worker appended to its segment file.
    pub published: usize,
    /// Results adopted from peer workers' segments instead of recomputed.
    pub fetched: usize,
    /// Another process held the store's exclusive lock; the worker backed
    /// off without computing or publishing anything.
    pub detached: bool,
}

/// Runs one shard worker end-to-end: parse, plan, summarize the shard's
/// compute closure against the shared store at `store_dir`, streaming
/// clean owned results into a fresh segment file. Never touches the
/// store's main file; the coordinator's exclusive re-open merges segments.
///
/// # Errors
///
/// [`AnalysisError::Parse`] when the input fails to parse or lower, and
/// [`AnalysisError::Store`] when the store directory or this worker's
/// segment file cannot be created or written.
pub fn run_worker(
    config: &AnalysisConfig,
    root: &str,
    fs: &VirtualFs,
    store_dir: &Path,
    shard: usize,
    shards: usize,
) -> Result<WorkerReport, AnalysisError> {
    // An armed fault plan makes results non-reproducible; published
    // summaries would outlive the plan and poison later clean runs. The
    // CLI never spawns workers with one armed — this is defense in depth.
    if config.fault_plan.is_some() {
        return Ok(WorkerReport::default());
    }
    let parsed = safeflow_syntax::parse_program_jobs(root, fs, config.jobs.max(1));
    let mut diags = parsed.diags;
    let sources = parsed.sources;
    if diags.has_errors() {
        return Err(AnalysisError::Parse { diags, sources });
    }
    let module = build_module(&parsed.unit, &mut diags);
    if diags.has_errors() {
        return Err(AnalysisError::Parse { diags, sources });
    }
    let regions = regions::extract_regions(&module, &config.shm_attach_functions, &mut diags);
    if diags.has_errors() {
        return Err(AnalysisError::Parse { diags, sources });
    }
    let (table, _policy_notes) = compile_policy(config, &module, &regions);
    let shm = shmptr::identify_shm_pointers(&module, &regions);
    let pt = PointsTo::analyze(&module);

    let store = SummaryStore::open_shared(store_dir)?;
    if store.lock_busy() {
        return Ok(WorkerReport { detached: true, ..WorkerReport::default() });
    }
    // Keys already persisted before this run: cache hits, never re-published.
    let entries = store.scc_entries();
    let snapshot: HashSet<u64> = entries.iter().map(|(k, _)| *k).collect();
    let cache = SummaryCache::default();
    cache.seed(entries);

    let callgraph = CallGraph::build(&module);
    let deps = callgraph.scc_dependencies();
    let plan = plan_shard(&module, &callgraph, &deps, shard, shards);
    let owned_count = plan.owned.iter().filter(|&&o| o).count();

    let writer = SegmentWriter::create(store_dir)?;
    let own_path = writer.path().to_path_buf();
    let writer = Mutex::new(writer);
    // First write error wins; later publishes become no-ops so the run
    // still finishes (unpublished results just get recomputed elsewhere).
    let publish_err: Mutex<Option<AnalysisError>> = Mutex::new(None);
    let peers = Mutex::new((
        SegmentScanner::new(store_dir, Some(&own_path)),
        HashMap::<u64, Arc<Vec<Summary>>>::new(),
    ));
    let fetched = AtomicUsize::new(0);

    let fetch = |key: u64, _members: usize| -> Option<Arc<Vec<Summary>>> {
        let mut guard = peers.lock().unwrap_or_else(|e| e.into_inner());
        let (scanner, seen) = &mut *guard;
        if !seen.contains_key(&key) {
            for (k, v) in scanner.poll() {
                seen.entry(k).or_insert(v);
            }
        }
        let hit = seen.get(&key).cloned();
        if hit.is_some() {
            fetched.fetch_add(1, Ordering::Relaxed);
        }
        hit
    };
    let publish = |i: usize, key: u64, summaries: &[Summary]| {
        if !plan.owned[i] || snapshot.contains(&key) {
            return;
        }
        let mut w = writer.lock().unwrap_or_else(|e| e.into_inner());
        let mut err = publish_err.lock().unwrap_or_else(|e| e.into_inner());
        if err.is_none() {
            if let Err(e) = w.publish(key, summaries) {
                *err = Some(e);
            }
        }
    };
    let restrict = ShardRestrict { closure: &plan.closure, fetch: &fetch, publish: &publish };
    let metrics = Metrics::new();
    let deadline = config
        .budget
        .deadline_ms
        .map(|ms| std::time::Instant::now() + std::time::Duration::from_millis(ms));
    let _ = summarize_sccs(
        &module,
        &regions,
        &shm,
        &pt,
        &callgraph,
        config,
        &table,
        &cache,
        deadline,
        &metrics,
        Some(&restrict),
    );

    if let Some(e) = publish_err.into_inner().unwrap_or_else(|e| e.into_inner()) {
        return Err(e);
    }
    let published = writer.into_inner().unwrap_or_else(|e| e.into_inner()).records();
    Ok(WorkerReport {
        sccs: callgraph.sccs.len(),
        owned: owned_count,
        published,
        fetched: fetched.load(Ordering::Relaxed),
        detached: false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_module(bodies: &[(&str, &[&str])]) -> Module {
        // Build a real module from synthesized C: each entry is a function
        // calling the listed callees.
        let mut src = String::new();
        for (name, _) in bodies {
            src.push_str(&format!("void {name}(void);\n"));
        }
        for (name, callees) in bodies {
            src.push_str(&format!("void {name}(void) {{\n"));
            for c in *callees {
                src.push_str(&format!("    {c}();\n"));
            }
            src.push_str("}\n");
        }
        let mut fs = VirtualFs::new();
        fs.add("toy.c", src);
        let parsed = safeflow_syntax::parse_program_jobs("toy.c", &fs, 1);
        assert!(!parsed.diags.has_errors());
        let mut diags = parsed.diags;
        let m = build_module(&parsed.unit, &mut diags);
        assert!(!diags.has_errors());
        m
    }

    #[test]
    fn plans_partition_ownership_and_close_dependencies() {
        let module = toy_module(&[
            ("leaf_a", &[]),
            ("leaf_b", &[]),
            ("mid", &["leaf_a"]),
            ("top", &["mid", "leaf_b"]),
        ]);
        let callgraph = CallGraph::build(&module);
        let deps = callgraph.scc_dependencies();
        let n = callgraph.sccs.len();
        let shards = 3;
        let plans: Vec<ShardPlan> =
            (0..shards).map(|s| plan_shard(&module, &callgraph, &deps, s, shards)).collect();
        // Ownership is a partition: every SCC owned by exactly one shard.
        for i in 0..n {
            let owners = plans.iter().filter(|p| p.owned[i]).count();
            assert_eq!(owners, 1, "SCC {i} owned by {owners} shards");
        }
        // Each closure is dependency-closed and contains the owned set.
        for p in &plans {
            for (i, scc_deps) in deps.iter().enumerate().take(n) {
                if p.owned[i] {
                    assert!(p.closure[i]);
                }
                if p.closure[i] {
                    for &d in scc_deps {
                        assert!(p.closure[d], "closure not dependency-closed at {i} -> {d}");
                    }
                }
            }
        }
        // Determinism: re-planning yields the identical assignment.
        for (s, p) in plans.iter().enumerate() {
            let again = plan_shard(&module, &callgraph, &deps, s, shards);
            assert_eq!(p.owned, again.owned);
            assert_eq!(p.closure, again.closure);
        }
    }

    #[test]
    fn single_shard_owns_everything() {
        let module = toy_module(&[("a", &[]), ("b", &["a"])]);
        let callgraph = CallGraph::build(&module);
        let deps = callgraph.scc_dependencies();
        let p = plan_shard(&module, &callgraph, &deps, 0, 1);
        assert!(p.owned.iter().all(|&o| o));
        assert!(p.closure.iter().all(|&c| c));
    }
}
