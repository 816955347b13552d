//! Phase 3, summary engine: the ESP-style value-flow-graph optimization the
//! paper proposes in §3.3's final paragraph ("analyzing each function only
//! once and summarizing the data dependencies in the functions using value
//! flow graphs ... a single bottom-up pass on the SCCs in the call graph,
//! inlining the value flow graphs in the callers").
//!
//! Each function gets a **symbolic summary**: the sources (parameters,
//! non-core region reads, memory objects, received messages) that flow into
//! its return value, its `assert(safe(...))` anchors, its critical call
//! arguments, and the memory objects it writes — each flagged as data or
//! control flow. Inlining a callee substitutes argument sources for
//! parameter symbols and drops region symbols monitored by the caller's
//! `assume(core(...))` scope (annotations apply recursively to callees,
//! §3.1). One bottom-up pass over call-graph SCCs; summaries inside an SCC
//! iterate to fixpoint.
//!
//! Must agree with [`crate::taint`] on findings: both report through
//! [`Findings`], and the differential oracle's `context-engine`
//! configuration compares them on every generated program. Value-flow
//! paths reported here are coarser (source → sink only) than the
//! context-sensitive engine's.
//!
//! Label-lattice policies generalize the summaries without changing their
//! shape: region facts carry an optional *relabel* mask recording the
//! label an `assume(declassify(...))` scope (the function's own, met with
//! its callers') declassified them to, and the root evaluation checks
//! leaked masks against per-sink clearances. Under the default two-point
//! policy declassification always lowers to ⊥ (the fact is dropped,
//! exactly the historical behavior) and every clearance is ⊥, so summaries
//! and findings are byte-identical.
//!
//! What a load, a critical call and a receive call read is the shared
//! reading of [`crate::scope`] and [`CallNames`], the same as the
//! context-sensitive engine's; only the propagation is this engine's own.

use crate::config::{AnalysisConfig, CallNames, ENTRY};
use crate::engine::SccTable;
use crate::policy::LabelTable;
use crate::regions::{RegionId, RegionMap};
use crate::report::{Degradation, DegradationKind, Findings, FlowNode};
use crate::scope::{self, Scope};
use crate::shmptr::ShmPointers;
use crate::taint::{TaintResults, TaintVal};
use safeflow_ir::{
    BlockId, CallGraph, Cfg, ControlDeps, FuncId, Function, InstKind, Module, PostDomTree,
    Terminator, Value,
};
use safeflow_points_to::{ObjId, PointsTo};
use safeflow_syntax::span::Span;
use safeflow_util::fault::FaultSite;
use safeflow_util::metrics::{Class, Metrics};
use safeflow_util::pool::{lock_recover, run_dag, PoolStats};
use safeflow_util::Symbol;
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// A symbolic taint source.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Sym {
    /// The function's `i`-th parameter.
    Param(u32),
    /// An unmonitored read of a non-core region (site span packed
    /// alongside in `SymSet`).
    Region(RegionId),
    /// A memory object (resolved module-wide after the bottom-up pass).
    Obj(ObjId),
    /// Data received from a non-core descriptor (§3.4.3).
    Recv,
    /// Conservative top: the value may depend on *any* unsafe source.
    /// Produced only when analysis of a scope degraded (contained panic or
    /// exhausted budget) — always treated as unsafe downstream, so a
    /// degraded callee can add findings but never hide one.
    Unknown,
}

/// A source with its flow kind: `ctl = true` means the influence is via
/// control dependence only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Fact {
    sym: Sym,
    ctl: bool,
    /// The label mask the `assume(declassify(...))` scopes the fact passed
    /// through declassified a region source to (their meet); `None` keeps
    /// the region's declared label. Always `None` under the default policy,
    /// where declassification lowers to ⊥ and drops the fact instead.
    relabel: Option<u64>,
}

/// A set of facts: a vector kept sorted by `Fact`'s `Ord` and free of
/// duplicates. It iterates in the order a `BTreeSet<Fact>` would, so a
/// summary encodes to the same bytes, and merging one set into another is a
/// linear merge that allocates only when the target outgrows its capacity.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct SymSet(Vec<Fact>);

impl SymSet {
    /// Adds `fact`; `true` when it was not already present.
    fn insert(&mut self, fact: Fact) -> bool {
        match self.0.binary_search(&fact) {
            Ok(_) => false,
            Err(at) => {
                self.0.insert(at, fact);
                true
            }
        }
    }

    /// Adds every fact of `facts` in any order; `true` when the set grew.
    fn extend(&mut self, facts: impl IntoIterator<Item = Fact>) -> bool {
        facts.into_iter().fold(false, |grew, f| self.insert(f) | grew)
    }

    /// Merges the sorted, duplicate-free `other` in place; `true` when the
    /// set grew. Counts the missing facts first, then merges from the back
    /// into the grown tail, so nothing moves twice.
    fn union(&mut self, other: &[Fact]) -> bool {
        if self.0.is_empty() {
            self.0.extend_from_slice(other);
            return !other.is_empty();
        }
        let (mut i, mut missing) = (0, 0);
        for f in other {
            while i < self.0.len() && self.0[i] < *f {
                i += 1;
            }
            if i == self.0.len() || self.0[i] != *f {
                missing += 1;
            }
        }
        if missing == 0 {
            return false;
        }
        // `a` facts of the old set and `b` of `other` are left to place;
        // the write position `w` meets `a` once the last missing one is in.
        let (mut a, mut b) = (self.0.len(), other.len());
        let v = &mut self.0;
        v.resize(a + missing, other[0]);
        let mut w = v.len();
        while b > 0 {
            w -= 1;
            if a > 0 && v[a - 1] >= other[b - 1] {
                if v[a - 1] == other[b - 1] {
                    b -= 1;
                }
                a -= 1;
                v[w] = v[a];
            } else {
                b -= 1;
                v[w] = other[b];
            }
        }
        true
    }

    fn clear(&mut self) {
        self.0.clear();
    }

    /// Turns every fact into a control fact (the flow is via a branch on
    /// it), keeping the set sorted and duplicate-free.
    fn promote(&mut self) {
        if self.0.iter().all(|f| f.ctl) {
            return;
        }
        for f in &mut self.0 {
            f.ctl = true;
        }
        self.0.sort_unstable();
        self.0.dedup();
    }
}

impl<'a> IntoIterator for &'a SymSet {
    type Item = &'a Fact;
    type IntoIter = std::slice::Iter<'a, Fact>;
    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

impl std::ops::Deref for SymSet {
    type Target = [Fact];
    fn deref(&self) -> &[Fact] {
        &self.0
    }
}

/// Published result of one SCC task.
struct SccOut {
    /// The members' summaries, in SCC member order.
    summaries: Arc<Vec<Summary>>,
    /// A degraded scope influenced them: dependents recompute against them
    /// rather than replay a prior result.
    tainted: bool,
    /// They enter the run's [`SccTable`]: clean, and not refused by an
    /// injected summary-cache fault.
    keep: bool,
}

type SccSlot = OnceLock<SccOut>;

/// A data-flow fact with no relabel — the overwhelmingly common case.
fn data_fact(sym: Sym) -> Fact {
    Fact { sym, ctl: false, relabel: None }
}

/// A recorded sink (assert or critical call argument) with the sources
/// reaching it.
#[derive(Debug, Clone)]
struct Sink {
    critical: Symbol,
    function: Symbol,
    span: Span,
    sources: SymSet,
}

/// Per-function symbolic summary.
#[derive(Debug, Clone, Default)]
pub(crate) struct Summary {
    /// Sources flowing to the return value.
    ret: SymSet,
    /// Unmonitored region reads: `(site span, region, function, relabel)`
    /// — already filtered by this function's own assume scope; `relabel`
    /// carries the declassified-to mask when a scope named the region (but
    /// did not clear it), as on a [`Fact`].
    region_reads: Vec<(Span, RegionId, Symbol, Option<u64>)>,
    /// Sinks observed in this function or inlined from callees.
    sinks: Vec<Sink>,
    /// Sources written into memory objects.
    obj_writes: BTreeMap<ObjId, SymSet>,
}

impl Summary {
    /// Serializes this summary for the persistent store (fixed-width
    /// little-endian fields; see [`crate::store`] for the container
    /// format). `decode` is the exact inverse; both live here because the
    /// summary internals are private to this module.
    pub(crate) fn encode(&self, out: &mut Vec<u8>) {
        use crate::store::{put_str, put_u32, put_u64, put_u8};
        fn put_relabel(out: &mut Vec<u8>, relabel: Option<u64>) {
            match relabel {
                None => put_u8(out, 0),
                Some(m) => {
                    put_u8(out, 1);
                    put_u64(out, m);
                }
            }
        }
        fn put_set(out: &mut Vec<u8>, set: &SymSet) {
            put_u32(out, set.len() as u32);
            for f in set {
                let (tag, payload) = match f.sym {
                    Sym::Param(i) => (0u8, i),
                    Sym::Region(r) => (1, r.0),
                    Sym::Obj(o) => (2, o.0),
                    Sym::Recv => (3, 0),
                    Sym::Unknown => (4, 0),
                };
                put_u8(out, tag);
                put_u32(out, payload);
                put_u8(out, f.ctl as u8);
                put_relabel(out, f.relabel);
            }
        }
        fn put_span(out: &mut Vec<u8>, span: Span) {
            put_u32(out, span.file.0);
            put_u32(out, span.lo);
            put_u32(out, span.hi);
        }
        put_set(out, &self.ret);
        put_u32(out, self.region_reads.len() as u32);
        for (span, region, func, relabel) in &self.region_reads {
            put_span(out, *span);
            put_u32(out, region.0);
            put_str(out, func.as_str());
            put_relabel(out, *relabel);
        }
        put_u32(out, self.sinks.len() as u32);
        for sink in &self.sinks {
            put_str(out, sink.critical.as_str());
            put_str(out, sink.function.as_str());
            put_span(out, sink.span);
            put_set(out, &sink.sources);
        }
        put_u32(out, self.obj_writes.len() as u32);
        for (obj, set) in &self.obj_writes {
            put_u32(out, obj.0);
            put_set(out, set);
        }
    }

    /// Deserializes one summary; `None` on any malformed input (the store
    /// reader treats that as a corrupt file and degrades to a cold run).
    pub(crate) fn decode(r: &mut crate::store::ByteReader<'_>) -> Option<Summary> {
        fn get_relabel(r: &mut crate::store::ByteReader<'_>) -> Option<Option<u64>> {
            match r.u8()? {
                0 => Some(None),
                1 => Some(Some(r.u64()?)),
                _ => None,
            }
        }
        fn get_set(r: &mut crate::store::ByteReader<'_>) -> Option<SymSet> {
            let n = r.seq_len()?;
            let mut facts = Vec::with_capacity(n);
            for _ in 0..n {
                let tag = r.u8()?;
                let payload = r.u32()?;
                let sym = match tag {
                    0 => Sym::Param(payload),
                    1 => Sym::Region(RegionId(payload)),
                    2 => Sym::Obj(ObjId(payload)),
                    3 => Sym::Recv,
                    4 => Sym::Unknown,
                    _ => return None,
                };
                let ctl = r.u8()? != 0;
                let relabel = get_relabel(r)?;
                facts.push(Fact { sym, ctl, relabel });
            }
            // `encode` writes a set in order; anything else is normalized
            // as a set would be.
            if !facts.windows(2).all(|w| w[0] < w[1]) {
                facts.sort_unstable();
                facts.dedup();
            }
            Some(SymSet(facts))
        }
        fn get_span(r: &mut crate::store::ByteReader<'_>) -> Option<Span> {
            let file = safeflow_syntax::span::FileId(r.u32()?);
            let (lo, hi) = (r.u32()?, r.u32()?);
            if lo > hi {
                return None;
            }
            Some(Span { file, lo, hi })
        }
        let ret = get_set(r)?;
        let mut region_reads = Vec::new();
        for _ in 0..r.seq_len()? {
            let span = get_span(r)?;
            let region = RegionId(r.u32()?);
            let func = Symbol::intern(r.str_ref()?);
            let relabel = get_relabel(r)?;
            region_reads.push((span, region, func, relabel));
        }
        let mut sinks = Vec::new();
        for _ in 0..r.seq_len()? {
            let critical = Symbol::intern(r.str_ref()?);
            let function = Symbol::intern(r.str_ref()?);
            let span = get_span(r)?;
            let sources = get_set(r)?;
            sinks.push(Sink { critical, function, span, sources });
        }
        let mut obj_writes = BTreeMap::new();
        for _ in 0..r.seq_len()? {
            let obj = ObjId(r.u32()?);
            let set = get_set(r)?;
            obj_writes.insert(obj, set);
        }
        Some(Summary { ret, region_reads, sinks, obj_writes })
    }

    /// The conservative top summary substituted for a function whose
    /// analysis degraded: its return value depends on an unknown unsafe
    /// source. Its side effects (region reads, sinks, object writes) are
    /// recovered separately by the degraded-scope sweep, which scans the
    /// raw IR instead of trusting a summary that was never computed.
    fn top() -> Summary {
        Summary { ret: SymSet(vec![data_fact(Sym::Unknown)]), ..Summary::default() }
    }
}

/// Runs the summary engine; produces the same result shape as the
/// context-sensitive engine.
///
/// Independent call-graph SCCs are summarized concurrently on
/// `config.jobs` worker threads, and each SCC's summaries are replayed from
/// `prior`, the previous run's table, when its content hash matches there
/// (see [`crate::engine`]). Returns the results with this run's own table:
/// one entry per distinct live key, this run's clean result or else
/// `prior`'s entry under that key. Results are bit-identical for every
/// `jobs` value and for warm vs cold tables. An SCC iterates its members to
/// a fixpoint, except a singleton whose member does not call itself: its
/// summary never reads itself, so a second round would only reproduce the
/// first, and it stops after one.
///
/// A panic inside one SCC's task (or an exhausted budget) degrades that
/// SCC — and only it — to conservative top: independent SCCs complete,
/// callers analyze against an unknown callee, the degraded scope's own
/// sites are re-collected conservatively from its IR, and the report
/// carries a [`Degradation`] naming the affected functions. Degraded
/// summaries never enter the returned table.
///
/// `callgraph` must be `CallGraph::build(module)` and `cfgs` each
/// function's CFG, indexed by `FuncId` (`None` for prototypes); the caller
/// builds both once for restriction checking and value flow alike.
#[allow(clippy::too_many_arguments)]
pub(crate) fn analyze_summaries(
    module: &Module,
    regions: &RegionMap,
    shm: &ShmPointers,
    pt: &PointsTo,
    callgraph: &CallGraph,
    cfgs: &[Option<Cfg>],
    config: &AnalysisConfig,
    table: &LabelTable,
    prior: &SccTable,
    deadline: Option<Instant>,
    metrics: &Metrics,
) -> (TaintResults, SccTable) {
    let noncore_sockets = scope::find_noncore_sockets(module, regions);
    let calls = CallNames::new(config, table);
    // Assume scopes first: they feed the report's init-check notes on
    // *every* run (cache-warm included) and are part of each function's
    // cache key.
    let (assumed_of, mut notes) = scope::own_scopes(module, regions, shm, table);

    // Content hashes chained bottom-up over the SCC DAG, then one probe of
    // the prior table per SCC (counters tally per member function).
    let deps = callgraph.scc_dependencies();
    let hashes = crate::engine::scc_hashes(
        module,
        regions,
        shm,
        pt,
        config,
        &noncore_sockets,
        callgraph,
        &deps,
        &assumed_of,
        metrics,
    );
    let prior: HashMap<u64, &Arc<Vec<Summary>>> = prior.iter().map(|(k, v)| (*k, v)).collect();
    let cached: Vec<Option<&Arc<Vec<Summary>>>> =
        hashes.iter().map(|key| prior.get(key).copied()).collect();
    // Per-run cache effectiveness: probes are a pure function of the
    // program (counter class); how they split into hits and misses moves
    // with the prior table (work class).
    let (mut run_hits, mut run_misses) = (0u64, 0u64);
    for (i, c) in cached.iter().enumerate() {
        let members = callgraph.sccs[i].len() as u64;
        match c {
            Some(_) => run_hits += members,
            None => run_misses += members,
        }
    }
    metrics.add(Class::Counter, "summary.cache_probes", run_hits + run_misses);
    metrics.add(Class::Counter, "summary.sccs", callgraph.sccs.len() as u64);
    metrics.add_many(
        Class::Work,
        &[("summary.cache_hits", run_hits), ("summary.cache_misses", run_misses)],
    );

    let jobs = config.jobs.max(1);
    let pool_stats = PoolStats::default();

    // Bottom-up over SCCs on the dependency-DAG pool; independent SCCs run
    // concurrently, each publishing its members' summaries (in member
    // order) into a slot its dependents read. Iteration to fixpoint stays
    // *inside* an SCC's task, so the result per SCC is schedule-invariant.
    //
    // Each slot carries a `tainted` flag: `true` means the summaries were
    // influenced by a degraded scope (its own budget ran out, or a
    // dependency was degraded) and must not enter the table — the content
    // hash cannot tell a clean result from a degraded one. A slot left
    // *unset* means the task panicked (the pool returns its `TaskPanic`);
    // readers substitute [`Summary::top`].
    let slots: Vec<SccSlot> = (0..callgraph.sccs.len()).map(|_| OnceLock::new()).collect();
    let publish_top = |i: usize| {
        let summaries = Arc::new(vec![Summary::top(); callgraph.sccs[i].len()]);
        let _ = slots[i].set(SccOut { summaries, tainted: true, keep: false });
    };
    let rounds_cap = config.budget.fixpoint_rounds.map(|r| r.max(1) as usize).unwrap_or(16);
    // Scratch for the tasks that compute an SCC: a task takes one and
    // gives it back once its members are summarized. A task that panics
    // drops its scratch, and every use clears what it reads, so nothing of
    // one SCC reaches the next. The pool drops with the run.
    let spares: Mutex<Vec<Scratch>> = Mutex::new(Vec::new());
    let scc_body = |i: usize| -> Option<String> {
        let scc = &callgraph.sccs[i];
        // Injected faults: a panic is contained by the pool (slot stays
        // unset); a budget fault degrades the SCC like a real exhaustion.
        if let Some(plan) = &config.fault_plan {
            if plan.trip(FaultSite::SccAnalysis, i as u64) {
                publish_top(i);
                return Some("injected budget exhaustion".to_string());
            }
        }
        if let Some(d) = deadline {
            if Instant::now() >= d {
                publish_top(i);
                return Some("wall-clock deadline exceeded before SCC analysis".to_string());
            }
        }
        if let Some(cap) = config.budget.max_function_insts {
            if let Some(&big) = scc.iter().find(|&&f| module.function(f).insts.len() > cap) {
                publish_top(i);
                return Some(format!(
                    "function `{}` exceeds the {cap}-instruction budget ({} instructions)",
                    module.function(big).name,
                    module.function(big).insts.len()
                ));
            }
        }
        // A degraded dependency poisons this SCC's result too: recompute
        // against the tops (never replay the prior table — its value was
        // computed against clean callees and would make warm degraded runs
        // differ from cold ones) and keep the result out of the table.
        let dep_tainted = deps[i].iter().any(|&d| slots[d].get().is_none_or(|out| out.tainted));
        if !dep_tainted {
            if let Some(hit) = cached[i] {
                let _ = slots[i].set(SccOut { summaries: hit.clone(), tainted: false, keep: true });
                return None;
            }
        }
        let summarized = |fid: FuncId| {
            let func = module.function(fid);
            !func.is_shminit() && func.is_definition && !func.blocks.is_empty()
        };
        let mut scratch = lock_recover(&spares).pop().unwrap_or_default();
        let Scratch { graphs, spare_cds, pdom, facts, local } = &mut scratch;
        local.clear();
        local.resize_with(scc.len(), || None);
        // Each summarized member's graphs are loop-invariant: built once, in
        // member order, and kept for later rounds.
        spare_cds.extend(graphs.drain(..).map(|g| g.cd));
        for &fid in scc.iter().filter(|&&fid| summarized(fid)) {
            let cd = spare_cds.pop().unwrap_or_default();
            graphs.push(build_fn_graphs(cfgs, &assumed_of, fid, cd, pdom));
        }
        let one_round = scc.len() == 1 && !callgraph.is_recursive(scc[0]);
        let mut changed = true;
        let mut rounds = 0;
        let mut summarize_calls = 0u64;
        let mut body_passes = 0u64;
        let mut inner_converged = true;
        while changed && rounds < rounds_cap {
            changed = false;
            rounds += 1;
            inner_converged = true;
            let mut member_graphs = graphs.iter();
            for (at, &fid) in scc.iter().enumerate() {
                if !summarized(fid) {
                    local[at].get_or_insert_with(Summary::default);
                    continue;
                }
                let g = member_graphs.next().expect("graphs are built for every summarized member");
                let view = SummaryView { callgraph, slots: &slots, local, own_scc: i };
                let (s, passes, converged) = summarize_function(
                    module,
                    regions,
                    shm,
                    pt,
                    &calls,
                    table,
                    &noncore_sockets,
                    &view,
                    fid,
                    g,
                    facts,
                    rounds_cap,
                );
                summarize_calls += 1;
                body_passes += passes;
                inner_converged &= converged;
                let slot = &mut local[at];
                if slot.as_ref().is_none_or(|p| !summary_eq(p, &s)) {
                    *slot = Some(s);
                    changed = true;
                }
            }
            // Nothing in a non-recursive singleton reads `local`, so the
            // round it just ran is already the fixpoint.
            changed &= !one_round;
        }
        let computed: Vec<Summary> =
            local.iter_mut().map(|s| s.take().unwrap_or_default()).collect();
        lock_recover(&spares).push(scratch);
        metrics.add_many(
            Class::Work,
            &[
                ("summary.fixpoint_rounds", rounds as u64),
                ("summary.summarize_calls", summarize_calls),
                ("summary.body_passes", body_passes),
            ],
        );
        // Non-convergence only degrades under an *explicit* cap: the
        // built-in bound of 16 keeps its historical silent behavior.
        if config.budget.fixpoint_rounds.is_some() && (changed || !inner_converged) {
            publish_top(i);
            return Some(format!("summary fixpoint did not converge within {rounds_cap} round(s)"));
        }
        // Injected cache fault: a panic here leaves the slot unset
        // (poisoning the SCC); a budget fault just keeps the result out of
        // the table.
        let refused =
            config.fault_plan.as_ref().is_some_and(|p| p.trip(FaultSite::SummaryCache, i as u64));
        let _ = slots[i].set(SccOut {
            summaries: Arc::new(computed),
            tainted: dep_tainted,
            keep: !dep_tainted && !refused,
        });
        None
    };
    let task_results = run_dag(jobs, &deps, &pool_stats, |i| {
        let t0 = Instant::now();
        let out = scc_body(i);
        metrics.observe("summary.scc_ns", t0.elapsed().as_nanos() as u64);
        out
    });
    pool_stats.record(metrics, "pool.summary");

    // Degradation records: one per SCC that panicked (contained) or ran
    // out of budget. These SCCs also get the conservative re-collection
    // sweep below.
    let mut degradations: Vec<Degradation> = Vec::new();
    let mut degraded_sccs: Vec<usize> = Vec::new();
    let member_names = |i: usize| -> Vec<String> {
        callgraph.sccs[i].iter().map(|&f| module.function(f).name.to_string()).collect()
    };
    for (i, r) in task_results.iter().enumerate() {
        match r {
            Err(p) => {
                degraded_sccs.push(i);
                degradations.push(Degradation {
                    kind: DegradationKind::InternalError,
                    functions: member_names(i),
                    detail: format!("summary analysis panicked: {}", p.message),
                });
            }
            Ok(Some(detail)) => {
                degraded_sccs.push(i);
                degradations.push(Degradation {
                    kind: DegradationKind::BudgetExhausted,
                    functions: member_names(i),
                    detail: detail.clone(),
                });
            }
            Ok(None) => {}
        }
    }

    let top = Summary::top();
    let mut summaries: HashMap<FuncId, &Summary> = HashMap::new();
    for (i, scc) in callgraph.sccs.iter().enumerate() {
        match slots[i].get() {
            Some(out) => summaries.extend(scc.iter().copied().zip(out.summaries.iter())),
            // Panicked task: conservative top for every member.
            None => summaries.extend(scc.iter().map(|&fid| (fid, &top))),
        }
    }

    // This run's table: per distinct key, the clean result it published,
    // or else the prior entry (a panicked, degraded or refused SCC).
    let mut seen = HashSet::new();
    let scc_table: SccTable = hashes
        .iter()
        .enumerate()
        .filter(|&(_, key)| seen.insert(*key))
        .filter_map(|(i, &key)| match slots[i].get() {
            Some(out) if out.keep => Some((key, out.summaries.clone())),
            _ => cached[i].map(|prior| (key, prior.clone())),
        })
        .collect();

    // Module-wide object taint: fixpoint over aggregated object writes.
    // An object is unsafe if a non-parameter unsafe source flows into it
    // anywhere (roots have clean parameters).
    let mut obj_writes: BTreeMap<ObjId, SymSet> = BTreeMap::new();
    for s in summaries.values() {
        for (o, set) in &s.obj_writes {
            obj_writes.entry(*o).or_default().union(set);
        }
    }
    // Degraded members have top summaries with *no* obj_writes — their
    // actual stores vanished with the panicked/over-budget analysis. Scan
    // their raw IR and mark every store target (and configured receive
    // buffer) as written with Unknown, so objects they may have tainted
    // stay unsafe for every other reader.
    let degraded_fns: BTreeSet<FuncId> = degraded_sccs
        .iter()
        .flat_map(|&i| callgraph.sccs[i].iter().copied())
        .filter(|&fid| {
            let f = module.function(fid);
            f.is_definition && !f.is_shminit() && !f.blocks.is_empty()
        })
        .collect();
    for &fid in &degraded_fns {
        for (_, inst) in module.function(fid).iter_insts() {
            let mut write = |ptr: &Value| {
                for o in pt.points_to_ref(fid, ptr).iter() {
                    obj_writes.entry(o).or_default().insert(data_fact(Sym::Unknown));
                }
            };
            match &inst.kind {
                InstKind::Store { ptr, .. } => write(ptr),
                InstKind::Call { callee, args } => {
                    if let Some(name) = module.external_callee_name(callee) {
                        calls.recv_bufs(name, args).for_each(|(buf, _)| write(buf));
                    }
                }
                _ => {}
            }
        }
    }
    // Per-source label evaluation shared between the object fixpoint and
    // the sink checks below: a fact's value is its (possibly declassified)
    // label mask as explicit taint, demoted to implicit when the flow is
    // control-only. Under the default policy every surviving source reads
    // as the two-point ⊤, reproducing the historical unsafe/ctl-only pair.
    let declared_mask =
        |r: RegionId| -> u64 { table.region_source_mask(r.0, regions.region(r).noncore) };
    let source_val = |f: &Fact, objs: &BTreeMap<ObjId, TaintVal>| -> TaintVal {
        let v = match f.sym {
            Sym::Region(r) => TaintVal::explicit_at(f.relabel.unwrap_or_else(|| declared_mask(r))),
            Sym::Recv | Sym::Unknown => TaintVal::explicit_at(table.top()),
            Sym::Obj(src) => objs.get(&src).copied().unwrap_or_default(),
            Sym::Param(_) => TaintVal::bot(),
        };
        if f.ctl {
            v.as_implicit()
        } else {
            v
        }
    };
    let mut unsafe_objs: BTreeMap<ObjId, TaintVal> = BTreeMap::new();
    let mut changed = true;
    let mut guard = 0;
    while changed && guard < 64 {
        changed = false;
        guard += 1;
        for (o, set) in &obj_writes {
            let mut v = unsafe_objs.get(o).copied().unwrap_or_default();
            for f in set {
                v = v.join(source_val(f, &unsafe_objs));
            }
            if v.is_bot() {
                continue;
            }
            if unsafe_objs.get(o).copied().unwrap_or_default() != v {
                unsafe_objs.insert(*o, v);
                changed = true;
            }
        }
    }

    // Evaluate sinks and collect warnings at *roots* only: the entry point
    // plus every defined function not reachable from it. Sites inside
    // helpers reached exclusively through monitors were filtered out while
    // inlining, exactly like the context-sensitive engine's contexts.
    let mut roots: BTreeSet<FuncId> = BTreeSet::new();
    let reachable = module
        .function_by_name(Symbol::intern(ENTRY))
        .filter(|e| module.function(*e).is_definition)
        .map(|e| {
            roots.insert(e);
            callgraph.reachable_from(e)
        })
        .unwrap_or_default();
    for fid in module.definitions() {
        if !reachable.contains(&fid) && !module.function(fid).is_shminit() {
            roots.insert(fid);
        }
    }

    let mut findings = Findings::default();
    for fid in roots {
        let func = module.function(fid);
        if func.is_shminit() {
            continue;
        }
        let Some(s) = summaries.get(&fid) else { continue };
        // Warnings: only count from "root" summaries (the function itself);
        // inlined callee reads are attributed to the callee's own summary,
        // so iterate every function rather than only entry roots.
        for (span, rid, in_func, relabel) in &s.region_reads {
            let effective = relabel.unwrap_or_else(|| declared_mask(*rid));
            findings.read(*in_func, *rid, *span, effective);
        }
        for sink in &s.sinks {
            // Parameters of roots are clean; other sources decide. Flows
            // at or below a critical call's clearance may reach it; an
            // assert anchor (keyed by its variable) has clearance ⊥.
            let clear = calls.clearance(sink.critical);
            for f in &sink.sources {
                let v = source_val(f, &unsafe_objs);
                findings.reach(sink.function, sink.span, sink.critical, v, clear, || {
                    let source_desc = match f.sym {
                        Sym::Region(r) => {
                            let name = &regions.region(r).name;
                            if table.is_default() {
                                format!("unmonitored read of non-core region `{name}`")
                            } else {
                                // The label the read reaches the sink with.
                                let label = table.name_of(v.explicit() | v.implicit());
                                format!("read of non-core region `{name}` (label `{label}`)")
                            }
                        }
                        _ => "unmonitored non-core input".to_string(),
                    };
                    Some(FlowNode::step(
                        format!("reaches critical `{}`", sink.critical),
                        sink.span,
                        FlowNode::source(source_desc, sink.span),
                    ))
                });
            }
        }
    }

    // Conservative sweep over degraded scopes: findings inlined *through*
    // a degraded function vanished with its summary (sinks and reads flow
    // to roots only by bottom-up inlining). Re-collect them directly from
    // the IR of every function reachable from a degraded member —
    // unfiltered by caller assume scopes and with every sink treated as
    // reached by unsafe data, so the analysis that would have decided it
    // cannot turn into a silent pass. Strictly a superset of what a clean
    // run reports for those scopes: degraded runs add findings, never lose
    // them.
    let mut swept: BTreeSet<FuncId> = BTreeSet::new();
    for &fid in &degraded_fns {
        swept.extend(callgraph.reachable_from(fid));
    }
    let unsafe_top = TaintVal::explicit_at(table.top());
    for fid in swept {
        let func = module.function(fid);
        if !func.is_definition || func.is_shminit() || func.blocks.is_empty() {
            continue;
        }
        let name = func.name;
        let degraded = |span: Span| {
            Some(FlowNode::source(
                format!("analysis of `{name}` (or a function it reaches) degraded; conservatively assumed unsafe"),
                span,
            ))
        };
        let assumed = assumed_of.get(&fid).unwrap_or(&NO_SCOPE);
        for (_, inst) in func.iter_insts() {
            match &inst.kind {
                InstKind::Load { ptr } => {
                    let reads = table.region_reads(regions, shm, func, fid, ptr, assumed);
                    for read in reads.into_iter().flatten() {
                        findings.read(name, read.region, inst.span, read.mask);
                    }
                }
                InstKind::AssertSafe { var, .. } => {
                    findings.reach(name, inst.span, *var, unsafe_top, 0, || degraded(inst.span));
                }
                InstKind::Call { callee, args } => {
                    if let Some(callee_name) = module.external_callee_name(callee) {
                        for (_, c) in calls.critical_args(callee_name, args) {
                            findings.reach(
                                name,
                                inst.span,
                                c.sink,
                                unsafe_top,
                                c.clearance,
                                || degraded(inst.span),
                            );
                        }
                    }
                }
                _ => {}
            }
        }
    }

    notes.sort();
    notes.dedup();
    let (warnings, errors) = findings.into_parts(table, regions);
    let results =
        TaintResults { warnings, errors, notes, contexts_analyzed: summaries.len(), degradations };
    (results, scc_table)
}

fn summary_eq(a: &Summary, b: &Summary) -> bool {
    a.ret == b.ret
        && a.region_reads == b.region_reads
        && a.obj_writes == b.obj_writes
        && a.sinks.len() == b.sinks.len()
        && a.sinks
            .iter()
            .zip(b.sinks.iter())
            .all(|(x, y)| x.sources == y.sources && x.critical == y.critical && x.span == y.span)
}

/// Loop-invariant per-function inputs to summarization.
struct FnGraphs<'a> {
    cfg: &'a Cfg,
    cd: ControlDeps,
    assumed: &'a Scope,
}

/// The scope of a function that assumes nothing.
static NO_SCOPE: Scope = BTreeMap::new();

/// The graphs of `fid`, its control dependences built into `cd`'s buffers
/// and its post-dominators into `pdom`'s.
fn build_fn_graphs<'a>(
    cfgs: &'a [Option<Cfg>],
    assumed_of: &'a HashMap<FuncId, Scope>,
    fid: FuncId,
    mut cd: ControlDeps,
    pdom: &mut PostDomTree,
) -> FnGraphs<'a> {
    let cfg = cfgs[fid.0 as usize].as_ref().expect("function has blocks");
    cd.rebuild(cfg, pdom);
    FnGraphs { cfg, cd, assumed: assumed_of.get(&fid).unwrap_or(&NO_SCOPE) }
}

/// The buffers one SCC task summarizes its members in, kept from one SCC
/// to the next a task computes (see `analyze_summaries`).
#[derive(Default)]
struct Scratch<'a> {
    /// The graphs of the SCC's summarized members, in member order.
    graphs: Vec<FnGraphs<'a>>,
    /// Control-dependence buffers of an earlier SCC's graphs, for reuse.
    spare_cds: Vec<ControlDeps>,
    /// Post-dominator buffers, for building control dependences.
    pdom: PostDomTree,
    facts: FactTables,
    /// Each member's summary in the current fixpoint round, by position in
    /// the SCC; `None` while pending.
    local: Vec<Option<Summary>>,
}

/// The fact tables [`summarize_function`] works in. Each use clears them
/// for its function; clearing keeps every set's capacity, so once a task
/// has summarized a few functions their facts mostly fit the sets it has.
#[derive(Default)]
struct FactTables {
    vals: ValueFacts,
    /// Each block's control facts: the promoted conditions of the
    /// branches that decide whether it runs.
    block_ctl: Vec<SymSet>,
    /// Sets beyond the current function's instructions and blocks, kept
    /// for a larger one.
    spare: Vec<SymSet>,
    /// Collects one instruction's (or branch condition's) facts before
    /// they are merged into its slot.
    set: SymSet,
    /// The block that recorded each of a pass's region reads and sinks.
    read_blocks: Vec<BlockId>,
    sink_blocks: Vec<BlockId>,
}

impl FactTables {
    /// Empties the tables for `func`: one empty set per instruction and
    /// per block, and each parameter's own symbol.
    fn reset(&mut self, func: &Function) {
        reset_sets(&mut self.vals.insts, func.insts.len(), &mut self.spare);
        reset_sets(&mut self.block_ctl, func.blocks.len(), &mut self.spare);
        self.vals.params.clear();
        self.vals.params.extend((0..func.params.len() as u32).map(|i| data_fact(Sym::Param(i))));
    }
}

/// Makes `sets` hold `n` empty sets, parking the sets beyond `n` in
/// `spare` and drawing missing ones from it, so no set's capacity is lost.
fn reset_sets(sets: &mut Vec<SymSet>, n: usize, spare: &mut Vec<SymSet>) {
    if sets.len() > n {
        spare.extend(sets.drain(n..));
    }
    sets.iter_mut().for_each(SymSet::clear);
    while sets.len() < n {
        let mut set = spare.pop().unwrap_or_default();
        set.clear();
        sets.push(set);
    }
}

/// Callee-summary lookup for [`summarize_function`]: in-SCC members come
/// from the task-local fixpoint state, everything below from the published
/// per-SCC slots (complete before this task started, by DAG order).
///
/// The two "missing" cases are deliberately different: an in-SCC member
/// not yet in `local` is *pending* and reads as bottom (the usual
/// fixpoint seed), while an unset slot of a *dependency* SCC means its
/// task panicked — that callee reads as [`Summary::top`], never silently
/// as bottom.
struct SummaryView<'a> {
    callgraph: &'a CallGraph,
    slots: &'a [SccSlot],
    /// The fixpoint state of the SCC this view's task is computing, by
    /// member position.
    local: &'a [Option<Summary>],
    /// Index of that SCC.
    own_scc: usize,
}

impl<'a> SummaryView<'a> {
    /// The callee's summary, borrowed from the fixpoint state or the
    /// published slot; owned only as a poisoned dependency's top.
    fn get(&self, f: FuncId) -> Option<Cow<'a, Summary>> {
        let &scc = self.callgraph.scc_of.get(&f)?;
        if scc == self.own_scc {
            // Same SCC: `None` while not yet computed (the bottom seed).
            let pos = self.callgraph.sccs[scc].iter().position(|&m| m == f)?;
            return self.local.get(pos)?.as_ref().map(Cow::Borrowed);
        }
        match self.slots[scc].get() {
            Some(published) => {
                let pos = self.callgraph.sccs[scc].iter().position(|&m| m == f)?;
                published.summaries.get(pos).map(Cow::Borrowed)
            }
            // Dependency SCC poisoned by a contained panic.
            None => Some(Cow::Owned(Summary::top())),
        }
    }
}

/// The facts of one function's SSA values: one set per `InstId`, and for a
/// parameter its own symbol.
#[derive(Default)]
struct ValueFacts {
    insts: Vec<SymSet>,
    params: Vec<Fact>,
}

impl ValueFacts {
    fn of(&self, v: &Value) -> &[Fact] {
        match *v {
            Value::Inst(id) => self.insts.get(id.0 as usize).map_or(&[], |s| s),
            Value::Param(i) => self.params.get(i as usize).map_or(&[], std::slice::from_ref),
            _ => &[],
        }
    }
}

/// The sources reaching a sink: a value's facts plus the control facts of
/// the sink's block.
fn sink_sources(value: &[Fact], ctl: &[Fact]) -> SymSet {
    let mut set = SymSet::default();
    set.union(value);
    set.union(ctl);
    set
}

/// Summarizes one function body. Returns the summary, the number of passes
/// made over the body, and whether they reached the fixpoint: `false` when
/// `rounds_cap` passes stopped the iteration first — callers with an
/// explicit [`crate::config::Budget::fixpoint_rounds`] degrade the SCC.
///
/// A pass walks the blocks in [`Cfg::body_walk`] order and merges a
/// branch's (promoted) condition facts into the blocks it controls as soon
/// as it reaches the branch. A body that order settles in one pass takes
/// one; any other repeats the pass until it changes nothing.
/// Region reads and sinks come out in block-index order whatever the walk,
/// so the summary's bytes do not depend on it.
///
/// Every fact table is dense, lives in `facts` and is merged in place:
/// operands are read by borrowing their sets, and one scratch set collects
/// each instruction's (or branch condition's) facts before they are merged
/// into its slot.
/// Block control facts are control facts by construction (a condition's
/// set is promoted before it is recorded), so merging them needs no
/// further promotion.
#[allow(clippy::too_many_arguments)]
fn summarize_function(
    module: &Module,
    regions: &RegionMap,
    shm: &ShmPointers,
    pt: &PointsTo,
    calls: &CallNames,
    table: &LabelTable,
    noncore_sockets: &BTreeSet<safeflow_ir::GlobalId>,
    summaries: &SummaryView<'_>,
    fid: FuncId,
    graphs: &FnGraphs,
    facts: &mut FactTables,
    rounds_cap: usize,
) -> (Summary, u64, bool) {
    let func = module.function(fid);
    let mut s = Summary::default();
    if func.blocks.is_empty() {
        return (s, 0, true);
    }
    let FnGraphs { cfg, cd, assumed } = graphs;
    let (walk, one_pass) = cfg.body_walk(func);

    facts.reset(func);
    let FactTables { vals, block_ctl, set, read_blocks, sink_blocks, .. } = facts;

    let (mut passes, mut converged) = (0, false);
    while passes < rounds_cap && !converged {
        passes += 1;
        let mut changed = false;
        s = Summary::default();
        read_blocks.clear();
        sink_blocks.clear();

        for bid in walk.clone() {
            let block = func.block(bid);
            let ctl_here = &block_ctl[bid.0 as usize];
            for &iid in &block.insts {
                let inst = func.inst(iid);
                set.clear();
                match &inst.kind {
                    InstKind::Load { ptr } => {
                        let reads = table.region_reads(regions, shm, func, fid, ptr, assumed);
                        let monitored = reads.is_none();
                        for read in reads.into_iter().flatten() {
                            let (region, relabel) = (read.region, read.relabel);
                            s.region_reads.push((inst.span, region, func.name, relabel));
                            set.insert(Fact { sym: Sym::Region(region), ctl: false, relabel });
                        }
                        set.union(vals.of(ptr));
                        if !monitored {
                            for o in pt.points_to_ref(fid, ptr).iter() {
                                set.insert(data_fact(Sym::Obj(o)));
                                let base = pt.base_of(o);
                                if base != o {
                                    set.insert(data_fact(Sym::Obj(base)));
                                }
                            }
                        }
                    }
                    InstKind::Store { ptr, value } => {
                        let value = vals.of(value);
                        if !value.is_empty() || !ctl_here.is_empty() {
                            for o in pt.points_to_ref(fid, ptr).iter() {
                                let written = s.obj_writes.entry(o).or_default();
                                written.union(value);
                                written.union(ctl_here);
                            }
                        }
                    }
                    kind @ (InstKind::Bin { .. }
                    | InstKind::Cmp { .. }
                    | InstKind::Cast { .. }
                    | InstKind::FieldAddr { .. }
                    | InstKind::ElemAddr { .. }) => {
                        kind.for_each_operand(|v| {
                            set.union(vals.of(v));
                        });
                    }
                    InstKind::Phi { incoming } => {
                        // Values plus implicit flow from the branches that
                        // decided which predecessor ran.
                        for (pred, v) in incoming {
                            set.union(vals.of(v));
                            if let Some(ctl) = block_ctl.get(pred.0 as usize) {
                                set.union(ctl);
                            }
                        }
                    }
                    InstKind::Call { callee, args } => {
                        if let Some(callee_name) = module.external_callee_name(callee) {
                            for (arg, c) in calls.critical_args(callee_name, args) {
                                let sources = sink_sources(vals.of(arg), ctl_here);
                                if !sources.is_empty() {
                                    let (critical, function, span) = (c.sink, func.name, inst.span);
                                    s.sinks.push(Sink { critical, function, span, sources });
                                }
                            }
                            for (buf, sock) in calls.recv_bufs(callee_name, args) {
                                if scope::socket_is_noncore(func, sock, noncore_sockets) {
                                    let recv = data_fact(Sym::Recv);
                                    for o in pt.points_to_ref(fid, buf).iter() {
                                        s.obj_writes.entry(o).or_default().insert(recv);
                                    }
                                }
                            }
                        } else if let safeflow_ir::Callee::Local(target) = callee {
                            // Inline the callee summary. `None` only for
                            // in-SCC members pending this fixpoint round
                            // (bottom seed); a poisoned dependency comes
                            // back as `Summary::top()` from the view.
                            let callee_sum = summaries.get(*target).unwrap_or_default();
                            // Adds the callee-side `facts` to `out` in this
                            // caller's terms.
                            let subst = |facts: &SymSet, out: &mut SymSet| {
                                for f in facts {
                                    match f.sym {
                                        Sym::Param(i) => {
                                            if let Some(arg) = args.get(i as usize) {
                                                let ctl = |af: &Fact| Fact {
                                                    ctl: af.ctl || f.ctl,
                                                    ..*af
                                                };
                                                out.extend(vals.of(arg).iter().map(ctl));
                                            }
                                        }
                                        // Monitored or declassified by this
                                        // caller's assume scope (recursive,
                                        // §3.1).
                                        Sym::Region(r) => {
                                            if let Some(relabel) =
                                                scope::narrow(assumed, r, f.relabel)
                                            {
                                                out.insert(Fact { relabel, ..*f });
                                            }
                                        }
                                        _ => {
                                            out.insert(*f);
                                        }
                                    }
                                }
                            };
                            // Region reads surviving this caller's scope.
                            for (span, r, in_func, relabel) in &callee_sum.region_reads {
                                if let Some(relabel) = scope::narrow(assumed, *r, *relabel) {
                                    s.region_reads.push((*span, *r, *in_func, relabel));
                                }
                            }
                            // Note: the call site's own control dependence
                            // does NOT taint sinks or memory writes inside
                            // the callee — only values passed as arguments
                            // carry taint across the call (matching the
                            // context-sensitive engine's §3.3 semantics).
                            for sink in &callee_sum.sinks {
                                let mut sources = SymSet::default();
                                subst(&sink.sources, &mut sources);
                                s.sinks.push(Sink { sources, ..*sink });
                            }
                            for (o, written) in &callee_sum.obj_writes {
                                subst(written, s.obj_writes.entry(*o).or_default());
                            }
                            subst(&callee_sum.ret, set);
                            set.union(ctl_here);
                        }
                    }
                    InstKind::AssertSafe { var, value } => {
                        let sources = sink_sources(vals.of(value), ctl_here);
                        if !sources.is_empty() {
                            s.sinks.push(Sink {
                                critical: *var,
                                function: func.name,
                                span: inst.span,
                                sources,
                            });
                        }
                    }
                    InstKind::Alloca { .. } => {}
                }
                changed |= vals.insts[iid.0 as usize].union(set);
            }
            read_blocks.resize(s.region_reads.len(), bid);
            sink_blocks.resize(s.sinks.len(), bid);

            // A branch over symbolic values controls the blocks it decides.
            let cond = match &block.terminator {
                Terminator::CondBr { cond, .. } => cond,
                Terminator::Switch { value, .. } => value,
                _ => continue,
            };
            set.clear();
            set.union(vals.of(cond));
            set.union(&block_ctl[bid.0 as usize]);
            if set.is_empty() {
                continue;
            }
            set.promote();
            for &dep in cd.controlled_by(bid) {
                changed |= block_ctl[dep.0 as usize].union(set);
            }
        }
        converged = one_pass || !changed;
    }

    s.region_reads = in_block_order(std::mem::take(&mut s.region_reads), read_blocks);
    s.sinks = in_block_order(std::mem::take(&mut s.sinks), sink_blocks);
    for (bid, block) in func.iter_blocks() {
        if let Terminator::Ret(Some(v)) = &block.terminator {
            s.ret.union(vals.of(v));
            s.ret.union(&block_ctl[bid.0 as usize]);
        }
    }
    (s, passes as u64, converged)
}

/// `items` in block-index order, where `blocks[i]` is the block that
/// recorded `items[i]`; the items of one block keep their order.
fn in_block_order<T>(items: Vec<T>, blocks: &[BlockId]) -> Vec<T> {
    if blocks.is_sorted() {
        return items;
    }
    let mut tagged: Vec<(BlockId, T)> = blocks.iter().copied().zip(items).collect();
    tagged.sort_by_key(|&(bid, _)| bid);
    tagged.into_iter().map(|(_, item)| item).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Analyzer, Engine};
    use safeflow_ir::{lower, ssa};
    use safeflow_syntax::diag::Diagnostics;
    use safeflow_syntax::parse_source;
    use safeflow_util::prop::{run_cases, Gen};

    /// A non-core shared region `reg` with four fields, for the body-walk
    /// tests below.
    const SHM_PRELUDE: &str = r#"
        typedef struct { int a; int b; int c; int d; } Shm;
        Shm *reg;
        void *shmat(int shmid, void *addr, int flags);
        void init(void)
        /** SafeFlow Annotation shminit */
        {
            reg = (Shm *) shmat(0, 0, 0);
            /** SafeFlow Annotation
                assume(shmvar(reg, sizeof(Shm)))
                assume(noncore(reg))
            */
        }
    "#;

    /// Summarizes `name`, which must call no function of the program, under
    /// the default configuration, in the program's IR as lowered and, when
    /// `promote`, in SSA form as the analyzer runs it. Returns the module,
    /// the function, its CFG, its summary and the passes made over its body.
    fn summarize_alone(
        src: &str,
        name: &str,
        promote: bool,
    ) -> (Module, FuncId, Cfg, Summary, u64) {
        let pr = parse_source("t.c", src);
        assert!(!pr.diags.has_errors(), "{:?}", pr.diags);
        let mut diags = Diagnostics::new();
        let mut module = lower::lower(&pr.unit, &mut diags);
        if promote {
            ssa::promote_module(&mut module);
        }
        let config = AnalysisConfig::default();
        let regions = crate::regions::extract_regions(&module, &mut diags);
        let (table, _) = crate::compile_policy(&config, &module, &regions);
        let shm = crate::shmptr::identify_shm_pointers(&module, &regions);
        let pt = PointsTo::analyze(&module);
        let callgraph = CallGraph::build(&module);
        let cfgs: Vec<Option<Cfg>> = module
            .functions
            .iter()
            .map(|f| (!f.blocks.is_empty()).then(|| Cfg::build(f)))
            .collect();
        let (assumed_of, _) = scope::own_scopes(&module, &regions, &shm, &table);
        let sockets = scope::find_noncore_sockets(&module, &regions);
        let fid = module.function_by_name(name.into()).expect("function exists");
        let graphs = build_fn_graphs(
            &cfgs,
            &assumed_of,
            fid,
            ControlDeps::default(),
            &mut PostDomTree::default(),
        );
        let view = SummaryView { callgraph: &callgraph, slots: &[], local: &[], own_scc: 0 };
        let (summary, passes, converged) = summarize_function(
            &module,
            &regions,
            &shm,
            &pt,
            &CallNames::new(&config, &table),
            &table,
            &sockets,
            &view,
            fid,
            &graphs,
            &mut FactTables::default(),
            16,
        );
        assert!(converged);
        let cfg = cfgs[fid.0 as usize].clone().expect("function has blocks");
        (module, fid, cfg, summary, passes)
    }

    /// The block holding the instruction at `span` in `func`.
    fn block_at(func: &safeflow_ir::Function, span: Span) -> BlockId {
        func.iter_blocks()
            .find(|(_, b)| b.insts.iter().any(|&i| func.inst(i).span == span))
            .map(|(bid, _)| bid)
            .expect("span is an instruction of the function")
    }

    /// Warning and error keys of a whole-program run under `engine`.
    fn finding_keys(engine: Engine, src: &str) -> (Vec<(String, Span)>, Vec<String>) {
        let report = Analyzer::new(AnalysisConfig::with_engine(engine))
            .analyze_source("t.c", src)
            .expect("analyzes")
            .report;
        let warnings = report.warnings.iter().map(|w| (w.function.clone(), w.span)).collect();
        let errors = report
            .errors
            .iter()
            .map(|e| format!("{} in {} at {:?}: {:?}", e.critical, e.function, e.span, e.kind))
            .collect();
        (warnings, errors)
    }

    /// An `if` nested in a then-arm: the lowering numbers the outer merge
    /// block before the nested arms, so reverse postorder is not index
    /// order. One pass settles the loop-free body, even though the assert
    /// at the outer merge reads a value from the nested arm, and its region
    /// reads and sinks still come out in block-index order.
    #[test]
    fn reads_and_sinks_come_out_in_block_order() {
        let src = format!(
            "{SHM_PRELUDE}{}",
            r#"
            int step(int x) {
                int r = 0;
                int k = reg->a;
                if (x) {
                    int u = reg->b;
                    if (u > 0) {
                        r = reg->c;
                        /** SafeFlow Annotation assert(safe(u)) */
                    }
                }
                /** SafeFlow Annotation assert(safe(r)) */
                return r + k + reg->d;
            }
            int main() { init(); return step(1); }
            "#
        );
        let (module, fid, cfg, summary, passes) = summarize_alone(&src, "step", true);
        let func = module.function(fid);
        assert!(!cfg.rpo.is_sorted(), "reverse postorder is index order: {:?}", cfg.rpo);
        assert_eq!(passes, 1);

        let read_blocks: Vec<BlockId> =
            summary.region_reads.iter().map(|r| block_at(func, r.0)).collect();
        let sink_blocks: Vec<BlockId> =
            summary.sinks.iter().map(|k| block_at(func, k.span)).collect();
        assert_eq!(read_blocks.len(), 4, "{:?}", summary.region_reads);
        assert_eq!(sink_blocks.len(), 2, "{:?}", summary.sinks);
        assert!(read_blocks.is_sorted(), "{read_blocks:?}");
        assert!(sink_blocks.is_sorted(), "{sink_blocks:?}");
        // The walk met them in another order, so the re-sort is exercised.
        let in_walk = |blocks: &[BlockId]| blocks.is_sorted_by_key(|b| cfg.rpo_index[b.0 as usize]);
        assert!(!in_walk(&read_blocks) || !in_walk(&sink_blocks));

        let (cs, sm) =
            (finding_keys(Engine::ContextSensitive, &src), finding_keys(Engine::Summary, &src));
        assert_eq!(cs, sm);
        assert_eq!(sm.1.len(), 2, "{:?}", sm.1);
    }

    /// A block unreachable from the entry is still summarized: its region
    /// read is recorded, and the body takes a confirming pass. SSA empties
    /// such blocks, so this runs on the IR as lowered.
    #[test]
    fn unreachable_block_keeps_its_region_read() {
        let src = format!(
            "{SHM_PRELUDE}{}",
            r#"
            int tail(int x) {
                int r = reg->a + x;
                return r;
                r = reg->b;
                return r;
            }
            int main() { init(); return tail(1); }
            "#
        );
        let (module, fid, cfg, summary, passes) = summarize_alone(&src, "tail", false);
        let func = module.function(fid);
        let dead: Vec<BlockId> =
            func.iter_blocks().map(|(b, _)| b).filter(|&b| !cfg.is_reachable(b)).collect();
        assert!(!dead.is_empty(), "the lowering drops the statements after `return`");
        let read_blocks: Vec<BlockId> =
            summary.region_reads.iter().map(|r| block_at(func, r.0)).collect();
        assert_eq!(read_blocks.len(), 2, "{:?}", summary.region_reads);
        assert!(read_blocks.iter().any(|b| dead.contains(b)), "{read_blocks:?}");
        assert_eq!(passes, 2);
    }

    /// One assert reached by two channels with incomparable labels: its
    /// error is labeled by their join, not by whichever source the sink
    /// lists first, and the context-sensitive engine agrees.
    #[test]
    fn a_sink_reached_by_two_labels_reports_their_join() {
        let src = r#"
            typedef struct { int v; int pad; } Blk;
            Blk *regA;
            Blk *regB;
            void *shmat(int shmid, void *addr, int flags);
            void init(void)
            /** SafeFlow Annotation shminit */
            {
                char *cursor;
                cursor = (char *) shmat(0, 0, 0);
                regA = (Blk *) cursor;
                regB = (Blk *) (cursor + sizeof(Blk));
                /** SafeFlow Annotation
                    assume(label(sensor_a))
                    assume(label(sensor_b))
                    assume(channel(regA, sizeof(Blk), sensor_a))
                    assume(channel(regB, sizeof(Blk), sensor_b))
                */
            }
            int main() {
                int x;
                init();
                x = regA->v + regB->v;
                /** SafeFlow Annotation assert(safe(x)) */
                return x;
            }
        "#;
        for engine in [Engine::Summary, Engine::ContextSensitive] {
            let report = Analyzer::new(AnalysisConfig::with_engine(engine))
                .analyze_source("t.c", src)
                .expect("analyzes")
                .report;
            let labels: Vec<Option<&str>> =
                report.errors.iter().map(|e| e.label.as_deref()).collect();
            assert_eq!(labels, [Some("sensor_a+sensor_b")], "{engine:?}");
        }
    }

    /// A fact from a small universe, so that random sets overlap: every
    /// `Sym` kind, both flow kinds, with and without a relabel mask.
    fn fact(g: &mut Gen) -> Fact {
        let n = g.usize(0, 3) as u32;
        let sym = match g.usize(0, 5) {
            0 => Sym::Param(n),
            1 => Sym::Region(RegionId(n)),
            2 => Sym::Obj(ObjId(n)),
            3 => Sym::Recv,
            _ => Sym::Unknown,
        };
        let relabel = g.chance(0.3).then(|| g.usize(1, 4) as u64);
        Fact { sym, ctl: g.bool(), relabel }
    }

    /// Every operation of the sorted-vector set agrees with a `BTreeSet`
    /// model: same iteration order, same length, and the same grew /
    /// did-not-grow answer at every step (promotion never grows a set; it
    /// may merge two facts into one).
    #[test]
    fn sym_set_matches_a_btree_set() {
        run_cases(256, |g| {
            let mut set = SymSet::default();
            let mut model: BTreeSet<Fact> = BTreeSet::new();
            for step in 0..g.usize(1, 40) {
                let before = model.len();
                let grew = match g.usize(0, 4) {
                    0 => {
                        let f = fact(g);
                        model.insert(f);
                        set.insert(f)
                    }
                    1 => {
                        let other: BTreeSet<Fact> = (0..g.usize(0, 12)).map(|_| fact(g)).collect();
                        let other: Vec<Fact> = other.into_iter().collect();
                        model.extend(other.iter().copied());
                        set.union(&other)
                    }
                    2 => {
                        let facts: Vec<Fact> = (0..g.usize(0, 12)).map(|_| fact(g)).collect();
                        model.extend(facts.iter().copied());
                        set.extend(facts)
                    }
                    _ => {
                        model = model.iter().map(|f| Fact { ctl: true, ..*f }).collect();
                        set.promote();
                        false
                    }
                };
                assert_eq!(set.len(), model.len(), "step {step}: length");
                assert!(set.iter().eq(model.iter()), "step {step}: order");
                assert_eq!(grew, model.len() > before, "step {step}: grew");
            }
        });
    }
}
