//! Parallel-engine support: content-hashed caching of function summaries.
//!
//! The summary engine ([`crate::summary`]) computes one symbolic summary
//! per function, bottom-up over call-graph SCCs. Both the schedule and the
//! cache live at SCC granularity:
//!
//! * **Scheduling** — [`safeflow_ir::CallGraph::scc_dependencies`] gives
//!   the bottom-up DAG; [`safeflow_util::pool::run_dag`] runs independent
//!   SCCs concurrently. Results are stored indexed by SCC, so the output
//!   is identical for any worker count.
//! * **Caching** — each SCC gets a *content hash* chaining (Merkle-style)
//!   the member functions' IR, their shm/points-to facts, their assume
//!   scopes, the analysis environment, and the hashes of every callee SCC.
//!   A hit replays the stored member summaries without re-running the
//!   fixpoint; editing one function invalidates exactly its own SCC and
//!   the SCCs of its (transitive) callers, so a warm re-analysis
//!   re-summarizes nothing and an incremental one re-summarizes only the
//!   affected chain. [`CacheStats`] counts hits/misses per member function
//!   so tests can assert both properties.
//!
//! The hash deliberately covers everything `summarize_function` reads:
//! instruction kinds/types/spans, terminators, annotations, parameters,
//! per-value region facts and points-to sets, the caller-scope assume
//! sets, and the config knobs that steer summarization. Spans are
//! included, so shifting a function within its file re-hashes it — sound
//! (never stale), merely conservative.
//!
//! The IR is hashed *structurally*: hand-written walkers write a one-byte
//! variant tag and then every field of each type, value, instruction,
//! terminator and annotation into the [`Fnv64`], with lists length-prefixed
//! and floats written as their bits. Nothing is rendered to a string or
//! collected into a temporary, and the key depends on neither the rustc
//! version nor the pointer width (hence no `#[derive(Hash)]`). The walkers
//! match every variant without a wildcard arm, so a new IR variant cannot
//! compile until it is hashed.
//!
//! The per-value facts are read by index: [`ShmPointers`] and
//! [`PointsTo`] keep them in dense per-function tables
//! ([`safeflow_ir::FuncTable`]), so a lookup for a parameter, an
//! instruction result or an operand hashes nothing and clones nothing, and
//! a value without facts reads as the shared empty set. The FNV state is
//! fed the same bytes as ever; `tests::pinned_scc_hashes` holds the keys of
//! the corpus programs fixed.

use crate::config::AnalysisConfig;
use crate::regions::RegionMap;
use crate::scope::Scope;
use crate::shmptr::ShmPointers;
use crate::summary::Summary;
use safeflow_ir::{CallGraph, Callee, FuncId, GlobalId, InstKind, Module, Terminator, Type, Value};
use safeflow_points_to::PointsTo;
use safeflow_syntax::annot::{AnnExpr, Annotation};
use safeflow_syntax::span::Span;
use safeflow_util::hash::Fnv64;
use safeflow_util::lock_recover;
use safeflow_util::metrics::{Class, Metrics};
use std::collections::{BTreeSet, HashMap};
use std::hash::Hasher;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Summary-cache effectiveness counters, cumulative over every analysis
/// run through one [`crate::Analyzer`].
///
/// Counts are per *function*: replaying a cached SCC of three members
/// records three hits. A fully warm re-analysis of an unchanged program
/// therefore shows `hits` grow by exactly the previous run's `misses`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Function summaries replayed from the cache.
    pub hits: usize,
    /// Function summaries that had to be computed.
    pub misses: usize,
}

/// Content-addressed store of per-SCC summary vectors (member order), keyed
/// by the chained content hash. Shared across worker threads and across
/// repeated `analyze_*` calls on one `Analyzer`.
///
/// Both mutexes are taken with [`lock_recover`]: every critical section is
/// a single map or vector operation, so a panic elsewhere (a contained SCC
/// fault) cannot leave them torn, and it must not disable the cache for the
/// rest of the session.
#[derive(Debug, Default)]
pub(crate) struct SummaryCache {
    map: Mutex<HashMap<u64, Arc<Vec<Summary>>>>,
    /// Keys of the most recent run's SCCs — the *live* set. The session
    /// persists exactly these ([`SummaryCache::export_live`]); entries
    /// outside it are history (stale content hashes) and are dropped from
    /// the on-disk store at save time.
    live: Mutex<Vec<u64>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
}

impl SummaryCache {
    /// Pre-populates the cache from a persistent store without touching
    /// the hit/miss counters: seeded entries only count when a run
    /// actually probes them.
    pub(crate) fn seed(&self, entries: Vec<(u64, Arc<Vec<Summary>>)>) {
        let mut map = lock_recover(&self.map);
        for (key, summaries) in entries {
            map.entry(key).or_insert(summaries);
        }
    }

    /// Declares the current run's SCC hash set as live (replacing the
    /// previous set). Called once per summary-engine run.
    pub(crate) fn set_live(&self, keys: &[u64]) {
        *lock_recover(&self.live) = keys.to_vec();
    }

    /// The cached entries for the live key set, in live-set order — what a
    /// clean run may persist. SCCs whose computation degraded were never
    /// inserted, so they are simply absent.
    pub(crate) fn export_live(&self) -> Vec<(u64, Arc<Vec<Summary>>)> {
        let map = lock_recover(&self.map);
        let mut seen = std::collections::HashSet::new();
        lock_recover(&self.live)
            .iter()
            .filter(|&&k| seen.insert(k))
            .filter_map(|&k| map.get(&k).map(|v| (k, v.clone())))
            .collect()
    }

    /// Probes for an SCC's summaries, tallying `members` hits or misses.
    pub(crate) fn get(&self, key: u64, members: usize) -> Option<Arc<Vec<Summary>>> {
        let found = lock_recover(&self.map).get(&key).cloned();
        match &found {
            Some(_) => self.hits.fetch_add(members, Ordering::Relaxed),
            None => self.misses.fetch_add(members, Ordering::Relaxed),
        };
        found
    }

    /// Stores a freshly computed SCC result.
    pub(crate) fn insert(&self, key: u64, summaries: Arc<Vec<Summary>>) {
        lock_recover(&self.map).insert(key, summaries);
    }

    /// Current counters.
    pub(crate) fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }
}

/// One content hash per SCC of `callgraph`, chained bottom-up: `deps` must
/// be `callgraph.scc_dependencies()` (every dependency index precedes its
/// dependent, which the bottom-up SCC order guarantees).
///
/// Records the Merkle-hashing wall-clock under `engine.scc_hash_ns` and
/// the SCC/function totals as deterministic counters.
#[allow(clippy::too_many_arguments)]
pub(crate) fn scc_hashes(
    module: &Module,
    regions: &RegionMap,
    shm: &ShmPointers,
    pt: &PointsTo,
    config: &AnalysisConfig,
    noncore_sockets: &BTreeSet<GlobalId>,
    callgraph: &CallGraph,
    deps: &[Vec<usize>],
    assumed_of: &HashMap<FuncId, Scope>,
    metrics: &Metrics,
) -> Vec<u64> {
    let t0 = std::time::Instant::now();
    let env = env_hash(module, regions, config, noncore_sockets);
    let mut out: Vec<u64> = Vec::with_capacity(callgraph.sccs.len());
    let mut functions = 0u64;
    for (i, scc) in callgraph.sccs.iter().enumerate() {
        let mut h = Fnv64::new();
        h.write_u64(env);
        h.write_usize(scc.len());
        for &fid in scc {
            h.write_u64(function_sig(module, shm, pt, fid, assumed_of.get(&fid)));
            functions += 1;
        }
        for &d in &deps[i] {
            h.write_u64(out[d]);
        }
        out.push(h.finish());
    }
    metrics.add_many(
        Class::Counter,
        &[("engine.sccs_hashed", out.len() as u64), ("engine.functions_hashed", functions)],
    );
    metrics.record_ns("engine.scc_hash_ns", t0.elapsed().as_nanos() as u64);
    out
}

/// Hash of the analysis-wide inputs every summary depends on: the region
/// table, the non-core socket set, and the config knobs `summarize_function`
/// consults. Region/global/function *ids* appear throughout the per-function
/// signatures, so any renumbering (e.g. a declaration added above) changes
/// those hashes too — again conservative, never stale.
fn env_hash(
    module: &Module,
    regions: &RegionMap,
    config: &AnalysisConfig,
    noncore_sockets: &BTreeSet<GlobalId>,
) -> u64 {
    let mut h = Fnv64::new();
    for r in regions.iter() {
        h.write_u32(r.id.0);
        h.write_str(&r.name);
        h.write_u32(r.global.0);
        h.write_u64(r.size);
        h.write_u64(r.elem_size);
        h.write_u64(r.len);
        h.write_u8(r.noncore as u8);
        h.write_str(r.label.as_deref().unwrap_or(""));
        h.write_i64(r.offset.unwrap_or(i64::MIN));
    }
    for g in noncore_sockets {
        h.write_u32(g.0);
    }
    // Global names pin GlobalId assignments (socket detection reads loads
    // of globals by id).
    for g in &module.globals {
        h.write_str(&g.name);
    }
    hash_summary_config(&mut h, config);
    h.finish()
}

/// Folds in the configuration every summary reads: control-dependence
/// tracking, the critical calls with their clearances, the recv specs, the
/// normalized label policy and the entry point. Lists are hashed sorted
/// and the policy normalized, because neither list order nor label
/// declaration order is semantic: configs differing only there must share
/// summaries and stored entries. [`crate::store::config_hash`] keys the
/// store with the same helper.
pub(crate) fn hash_summary_config(h: &mut Fnv64, config: &AnalysisConfig) {
    h.write_u8(config.track_control_dependence as u8);
    let mut calls: Vec<_> = config.implicit_critical_calls.iter().collect();
    calls.sort();
    for call in calls {
        h.write_str(&call.name);
        h.write_usize(call.arg);
        h.write_str(call.clearance.as_deref().unwrap_or(""));
    }
    let mut recvs: Vec<_> = config.recv_functions.iter().collect();
    recvs.sort();
    for spec in recvs {
        h.write_str(&spec.name);
        h.write_usize(spec.sock_arg);
        h.write_usize(spec.buf_arg);
    }
    let mut policy_bytes = Vec::new();
    config.policy.clone().normalized().encode_into(&mut policy_bytes);
    h.write(&policy_bytes);
    h.write_str(&config.entry);
}

/// Content signature of one function: everything `summarize_function`
/// reads from it — the signature and annotations, the assume scope, every
/// instruction (id, kind, type, span) and terminator, and the region and
/// points-to facts of each parameter, instruction result and operand.
/// Hashed structurally (see the module docs), so it allocates nothing.
fn function_sig(
    module: &Module,
    shm: &ShmPointers,
    pt: &PointsTo,
    fid: FuncId,
    assumed: Option<&Scope>,
) -> u64 {
    let func = module.function(fid);
    let mut h = Fnv64::new();
    h.write_str(&func.name);
    hash_type(&mut h, &func.ret);
    h.write_u8(func.is_definition as u8);
    h.write_usize(func.params.len());
    for p in &func.params {
        h.write_str(&p.name);
        hash_type(&mut h, &p.ty);
    }
    h.write_usize(func.annotations.len());
    for ann in &func.annotations {
        hash_annotation(&mut h, ann);
    }
    if let Some(assumed) = assumed {
        h.write_usize(assumed.len());
        for (r, mask) in assumed {
            h.write_u32(r.0);
            h.write_u64(*mask);
        }
    }
    // Per-value analysis facts for parameters...
    for i in 0..func.params.len() {
        hash_value_facts(&mut h, shm, pt, fid, &Value::Param(i as u32));
    }
    // ...and the IR itself, block by block, with per-result facts.
    for (bid, block) in func.iter_blocks() {
        h.write_u32(bid.0);
        h.write_usize(block.insts.len());
        for &iid in &block.insts {
            let inst = func.inst(iid);
            h.write_u32(iid.0);
            hash_inst_kind(&mut h, &inst.kind);
            hash_type(&mut h, &inst.ty);
            hash_span(&mut h, inst.span);
            hash_value_facts(&mut h, shm, pt, fid, &Value::Inst(iid));
            // Store/load targets have facts on their operands too.
            inst.kind.for_each_operand(|op| hash_value_facts(&mut h, shm, pt, fid, op));
        }
        hash_terminator(&mut h, &block.terminator);
    }
    h.finish()
}

/// Folds in the shm-region facts and points-to set of one value.
fn hash_value_facts(h: &mut Fnv64, shm: &ShmPointers, pt: &PointsTo, fid: FuncId, v: &Value) {
    let regions = shm.regions_of_ref(fid, v);
    h.write_usize(regions.len());
    for rp in regions {
        h.write_u32(rp.region.0);
        h.write_i64(rp.offset.unwrap_or(i64::MIN));
    }
    let objs = pt.points_to_ref(fid, v);
    h.write_usize(objs.len());
    for o in objs.iter() {
        h.write_u32(o.0);
        h.write_u32(pt.base_of(o).0);
    }
}

fn hash_span(h: &mut Fnv64, span: Span) {
    h.write_u32(span.file.0);
    h.write_u32(span.lo);
    h.write_u32(span.hi);
}

fn hash_type(h: &mut Fnv64, ty: &Type) {
    match ty {
        Type::Void => h.write_u8(0),
        Type::Int { bits, signed } => {
            h.write_u8(1);
            h.write_u8(*bits);
            h.write_u8(*signed as u8);
        }
        Type::Float { bits } => {
            h.write_u8(2);
            h.write_u8(*bits);
        }
        Type::Ptr(pointee) => {
            h.write_u8(3);
            hash_type(h, pointee);
        }
        Type::Array(elem, len) => {
            h.write_u8(4);
            hash_type(h, elem);
            h.write_u64(*len);
        }
        Type::Struct(id) => {
            h.write_u8(5);
            h.write_u32(id.0);
        }
    }
}

fn hash_value(h: &mut Fnv64, v: &Value) {
    match v {
        Value::Inst(id) => {
            h.write_u8(0);
            h.write_u32(id.0);
        }
        Value::Param(i) => {
            h.write_u8(1);
            h.write_u32(*i);
        }
        Value::Global(g) => {
            h.write_u8(2);
            h.write_u32(g.0);
        }
        Value::ConstInt(c, ty) => {
            h.write_u8(3);
            h.write_i64(*c);
            hash_type(h, ty);
        }
        Value::ConstFloat(c, ty) => {
            h.write_u8(4);
            h.write_u64(c.to_bits());
            hash_type(h, ty);
        }
        Value::ConstNull(ty) => {
            h.write_u8(5);
            hash_type(h, ty);
        }
    }
}

fn hash_inst_kind(h: &mut Fnv64, kind: &InstKind) {
    match kind {
        InstKind::Alloca { ty, name } => {
            h.write_u8(0);
            hash_type(h, ty);
            h.write_str(name);
        }
        InstKind::Load { ptr } => {
            h.write_u8(1);
            hash_value(h, ptr);
        }
        InstKind::Store { ptr, value } => {
            h.write_u8(2);
            hash_value(h, ptr);
            hash_value(h, value);
        }
        InstKind::FieldAddr { base, struct_id, field } => {
            h.write_u8(3);
            hash_value(h, base);
            h.write_u32(struct_id.0);
            h.write_u32(*field);
        }
        InstKind::ElemAddr { base, index } => {
            h.write_u8(4);
            hash_value(h, base);
            hash_value(h, index);
        }
        InstKind::Bin { op, lhs, rhs } => {
            h.write_u8(5);
            h.write_u8(*op as u8);
            hash_value(h, lhs);
            hash_value(h, rhs);
        }
        InstKind::Cmp { op, lhs, rhs } => {
            h.write_u8(6);
            h.write_u8(*op as u8);
            hash_value(h, lhs);
            hash_value(h, rhs);
        }
        InstKind::Cast { kind, value } => {
            h.write_u8(7);
            h.write_u8(*kind as u8);
            hash_value(h, value);
        }
        InstKind::Call { callee, args } => {
            h.write_u8(8);
            match callee {
                Callee::Local(f) => {
                    h.write_u8(0);
                    h.write_u32(f.0);
                }
                Callee::External(name) => {
                    h.write_u8(1);
                    h.write_str(name);
                }
            }
            h.write_usize(args.len());
            for a in args {
                hash_value(h, a);
            }
        }
        InstKind::Phi { incoming } => {
            h.write_u8(9);
            h.write_usize(incoming.len());
            for (b, v) in incoming {
                h.write_u32(b.0);
                hash_value(h, v);
            }
        }
        InstKind::AssertSafe { var, value } => {
            h.write_u8(10);
            h.write_str(var);
            hash_value(h, value);
        }
    }
}

fn hash_terminator(h: &mut Fnv64, term: &Terminator) {
    match term {
        Terminator::Br(b) => {
            h.write_u8(0);
            h.write_u32(b.0);
        }
        Terminator::CondBr { cond, then_bb, else_bb } => {
            h.write_u8(1);
            hash_value(h, cond);
            h.write_u32(then_bb.0);
            h.write_u32(else_bb.0);
        }
        Terminator::Switch { value, cases, default } => {
            h.write_u8(2);
            hash_value(h, value);
            h.write_usize(cases.len());
            for (c, b) in cases {
                h.write_i64(*c);
                h.write_u32(b.0);
            }
            h.write_u32(default.0);
        }
        Terminator::Ret(v) => {
            h.write_u8(3);
            match v {
                None => h.write_u8(0),
                Some(v) => {
                    h.write_u8(1);
                    hash_value(h, v);
                }
            }
        }
        Terminator::Unreachable => h.write_u8(4),
    }
}

fn hash_annotation(h: &mut Fnv64, ann: &Annotation) {
    match ann {
        Annotation::AssumeCore { ptr, offset, size, span } => {
            h.write_u8(0);
            h.write_str(ptr);
            hash_ann_expr(h, offset);
            hash_ann_expr(h, size);
            hash_span(h, *span);
        }
        Annotation::AssertSafe { var, span } => {
            h.write_u8(1);
            h.write_str(var);
            hash_span(h, *span);
        }
        Annotation::ShmInit { span } => {
            h.write_u8(2);
            hash_span(h, *span);
        }
        Annotation::ShmVar { ptr, size, span } => {
            h.write_u8(3);
            h.write_str(ptr);
            hash_ann_expr(h, size);
            hash_span(h, *span);
        }
        Annotation::Noncore { target, span } => {
            h.write_u8(4);
            h.write_str(target);
            hash_span(h, *span);
        }
        Annotation::Label { name, below, span } => {
            h.write_u8(5);
            h.write_str(name);
            match below {
                None => h.write_u8(0),
                Some(below) => {
                    h.write_u8(1);
                    h.write_str(below);
                }
            }
            hash_span(h, *span);
        }
        Annotation::Declassifier { from, to, span } => {
            h.write_u8(6);
            h.write_str(from);
            h.write_str(to);
            hash_span(h, *span);
        }
        Annotation::Channel { ptr, size, label, span } => {
            h.write_u8(7);
            h.write_str(ptr);
            hash_ann_expr(h, size);
            h.write_str(label);
            hash_span(h, *span);
        }
        Annotation::AssumeDeclassify { ptr, offset, size, to, span } => {
            h.write_u8(8);
            h.write_str(ptr);
            hash_ann_expr(h, offset);
            hash_ann_expr(h, size);
            h.write_str(to);
            hash_span(h, *span);
        }
    }
}

fn hash_ann_expr(h: &mut Fnv64, e: &AnnExpr) {
    let (tag, a, b) = match e {
        AnnExpr::Int(v) => {
            h.write_u8(0);
            return h.write_i64(*v);
        }
        AnnExpr::Sizeof(name) => {
            h.write_u8(1);
            return h.write_str(name);
        }
        AnnExpr::Ident(name) => {
            h.write_u8(2);
            return h.write_str(name);
        }
        AnnExpr::Add(a, b) => (3, a, b),
        AnnExpr::Sub(a, b) => (4, a, b),
        AnnExpr::Mul(a, b) => (5, a, b),
        AnnExpr::Div(a, b) => (6, a, b),
    };
    h.write_u8(tag);
    hash_ann_expr(h, a);
    hash_ann_expr(h, b);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regions::extract_regions;
    use crate::shmptr::identify_shm_pointers;
    use safeflow_corpus::monorepo::{generate_monorepo, MonorepoParams};
    use safeflow_ir::{build_module, BasicBlock, BinOp, BlockId, CastKind, CmpOp, Function};
    use safeflow_ir::{Inst, InstId, IrParam, StructId};
    use safeflow_syntax::diag::Diagnostics;
    use safeflow_syntax::parse_source;
    use safeflow_syntax::pp::VirtualFs;
    use safeflow_syntax::span::FileId;
    use std::collections::BTreeMap;

    fn hashes_for(src: &str) -> (Vec<String>, Vec<u64>) {
        let pr = parse_source("t.c", src);
        assert!(!pr.diags.has_errors(), "{:?}", pr.diags);
        let mut diags = Diagnostics::new();
        let m = build_module(&pr.unit, &mut diags);
        assert!(!diags.has_errors(), "{diags:?}");
        let regions = extract_regions(&m, &["shmat".to_string()], &mut diags);
        let shm = identify_shm_pointers(&m, &regions);
        let pt = PointsTo::analyze(&m);
        let cg = CallGraph::build(&m);
        let config = AnalysisConfig::default();
        let deps = cg.scc_dependencies();
        let assumed: HashMap<FuncId, Scope> = HashMap::new();
        let metrics = Metrics::new();
        let hs = scc_hashes(
            &m,
            &regions,
            &shm,
            &pt,
            &config,
            &BTreeSet::new(),
            &cg,
            &deps,
            &assumed,
            &metrics,
        );
        let names = cg
            .sccs
            .iter()
            .map(|scc| {
                scc.iter().map(|&f| m.function(f).name.clone()).collect::<Vec<_>>().join("+")
            })
            .collect();
        (names, hs)
    }

    const PROG: &str = r#"
        int leaf(int x) { return x + 1; }
        int mid(int x) { return leaf(x) * 2; }
        int other(int x) { return x - 3; }
        int main() { return mid(4) + other(5); }
    "#;

    #[test]
    fn hashes_are_reproducible() {
        let (_, a) = hashes_for(PROG);
        let (_, b) = hashes_for(PROG);
        assert_eq!(a, b);
    }

    #[test]
    fn editing_a_function_invalidates_exactly_its_caller_chain() {
        let (names, before) = hashes_for(PROG);
        // Change a constant inside `leaf` only.
        let (names2, after) = hashes_for(&PROG.replace("x + 1", "x + 2"));
        assert_eq!(names, names2);
        for (i, name) in names.iter().enumerate() {
            let should_change = name == "leaf" || name == "mid" || name == "main";
            assert_eq!(
                before[i] != after[i],
                should_change,
                "scc `{name}`: before={:#x} after={:#x}",
                before[i],
                after[i]
            );
        }
    }

    /// Regression: the whole front half of the pipeline (parse → lower →
    /// SSA → regions → shm → points-to) must be reproducible, or identical
    /// sources hash differently and the cache never hits across analyses.
    /// Loops + φ nodes + field accesses through shm pointers once exposed
    /// HashMap-iteration-order nondeterminism in SSA φ placement and in the
    /// points-to solver's lazy `Obj::Field` interning.
    #[test]
    fn hashes_are_reproducible_with_loops_and_shm() {
        let src =
            safeflow_corpus::synthetic::generate_wide(safeflow_corpus::synthetic::WideParams {
                families: 3,
                depth: 2,
                regions: 2,
                branches: 2,
            });
        let (names_a, a) = hashes_for(&src);
        let (names_b, b) = hashes_for(&src);
        assert_eq!(names_a, names_b);
        assert_eq!(a, b);
    }

    /// A function with one instruction of every kind and one terminator
    /// of every kind, for the hash-sensitivity test.
    fn every_variant() -> Function {
        let p32 = Type::int32().ptr_to();
        let (i, f64c) = (|n| Value::Inst(InstId(n)), Value::ConstFloat(1.5, Type::f64()));
        #[rustfmt::skip]
        let kinds = vec![
            (InstKind::Alloca { ty: Type::Array(Box::new(p32.clone()), 4), name: "buf".into() }, p32.clone()),
            (InstKind::Load { ptr: Value::Param(0) }, Type::int32()),
            (InstKind::Store { ptr: i(0), value: Value::i32(5) }, Type::Void),
            (InstKind::FieldAddr { base: Value::Param(0), struct_id: StructId(0), field: 1 }, p32.clone()),
            (InstKind::ElemAddr { base: i(0), index: Value::ConstInt(2, Type::int64()) }, p32.clone()),
            (InstKind::Bin { op: BinOp::Add, lhs: i(1), rhs: f64c }, Type::f64()),
            (InstKind::Cmp { op: CmpOp::Lt, lhs: i(5), rhs: Value::ConstNull(Type::void_ptr()) }, Type::int32()),
            (InstKind::Cast { kind: CastKind::IntToFloat, value: Value::Global(GlobalId(0)) }, Type::f32()),
            (InstKind::Call { callee: Callee::Local(FuncId(0)), args: vec![i(1), Value::Param(0)] }, Type::int32()),
            (InstKind::AssertSafe { var: "x".into(), value: i(8) }, Type::Void),
            (InstKind::Call { callee: Callee::External("kill".into()), args: vec![] }, Type::int32()),
            (InstKind::Phi { incoming: vec![(BlockId(1), i(1)), (BlockId(2), Value::i32(0))] }, Type::int32()),
        ];
        let span = |lo: u32| Span::new(FileId(0), lo, lo + 5);
        let insts =
            kinds.into_iter().zip(0..).map(|((kind, ty), n)| Inst { kind, ty, span: span(10 * n) });
        let block = |insts: Vec<u32>, terminator| BasicBlock {
            insts: insts.into_iter().map(InstId).collect(),
            terminator,
            name: String::new(),
        };
        #[rustfmt::skip]
        let blocks = vec![
            block((0..10).collect(), Terminator::CondBr { cond: i(6), then_bb: BlockId(1), else_bb: BlockId(2) }),
            block(vec![10], Terminator::Switch { value: i(1), cases: vec![(1, BlockId(2)), (2, BlockId(3))], default: BlockId(3) }),
            block(vec![], Terminator::Br(BlockId(3))),
            block(vec![11], Terminator::Ret(Some(i(11)))),
            block(vec![], Terminator::Ret(None)),
            block(vec![], Terminator::Unreachable),
        ];
        let two = Box::new(AnnExpr::Int(2));
        Function {
            name: "f".into(),
            ret: Type::int32(),
            params: vec![IrParam { name: "p".into(), ty: p32 }],
            varargs: false,
            insts: insts.collect(),
            blocks,
            annotations: vec![Annotation::AssumeCore {
                ptr: "p".into(),
                offset: AnnExpr::Int(0),
                size: AnnExpr::Mul(Box::new(AnnExpr::Sizeof("int".into())), two),
                span: span(200),
            }],
            is_definition: true,
            span: Span::dummy(),
        }
    }

    /// `function_sig` of `func` over empty fact tables, so only the
    /// structural walk can tell two functions apart.
    fn bare_sig(func: &Function) -> u64 {
        let mut m = Module::new();
        let fid = m.add_function(func.clone());
        let pt = PointsTo::analyze(&Module::new());
        function_sig(&m, &ShmPointers::default(), &pt, fid, None)
    }

    /// Every field of every instruction, terminator, value and type
    /// variant reaches the key, as it did when the key hashed `Debug`
    /// renderings (which never covered `varargs`, block names or the
    /// declarator span either).
    #[test]
    fn every_ir_field_changes_the_function_sig() {
        type Edit = fn(&mut Function);
        fn k(f: &mut Function, i: usize) -> &mut InstKind {
            &mut f.insts[i].kind
        }
        /// Operand `n` of instruction `i`.
        fn op(f: &mut Function, i: usize, n: usize) -> &mut Value {
            f.insts[i].kind.operands_mut().swap_remove(n)
        }
        fn t(f: &mut Function, b: usize) -> &mut Terminator {
            &mut f.blocks[b].terminator
        }
        // Each edit changes one field in place; a pattern that does not
        // match leaves the IR unchanged, which the loop below rejects.
        #[rustfmt::skip]
        let edits: &[(&str, Edit)] = &[
            ("function name", |f| f.name = "g".into()),
            ("return type", |f| f.ret = Type::int64()),
            ("is_definition", |f| f.is_definition = false),
            ("param name", |f| f.params[0].name = "q".into()),
            ("param type", |f| f.params[0].ty = Type::int8().ptr_to()),
            ("annotation kind", |f| f.annotations[0] = Annotation::ShmInit { span: f.annotations[0].span() }),
            ("annotation span", |f| if let Annotation::AssumeCore { span, .. } = &mut f.annotations[0] { span.lo += 1 }),
            ("annotation pointer", |f| if let Annotation::AssumeCore { ptr, .. } = &mut f.annotations[0] { *ptr = "q".into() }),
            ("annotation constant", |f| if let Annotation::AssumeCore { offset, .. } = &mut f.annotations[0] { *offset = AnnExpr::Int(4) }),
            ("annotation operator", |f| if let Annotation::AssumeCore { size, .. } = &mut f.annotations[0] {
                if let AnnExpr::Mul(a, b) = size.clone() { *size = AnnExpr::Add(a, b) }
            }),
            ("annotation sizeof -> ident", |f| if let Annotation::AssumeCore { size, .. } = &mut f.annotations[0] {
                if let AnnExpr::Mul(_, b) = size.clone() { *size = AnnExpr::Mul(Box::new(AnnExpr::Ident("int".into())), b) }
            }),
            ("instruction type", |f| f.insts[1].ty = Type::int64()),
            ("span file", |f| f.insts[1].span.file = FileId(1)),
            ("span lo", |f| f.insts[1].span.lo += 1),
            ("span hi", |f| f.insts[1].span.hi += 1),
            ("array length", |f| if let InstKind::Alloca { ty: Type::Array(_, n), .. } = k(f, 0) { *n = 5 }),
            ("nested pointer", |f| if let InstKind::Alloca { ty: Type::Array(e, _), .. } = k(f, 0) { **e = e.ptr_to() }),
            ("pointee type", |f| if let InstKind::Alloca { ty: Type::Array(e, _), .. } = k(f, 0) { **e = Type::Struct(StructId(0)).ptr_to() }),
            ("struct type id", |f| f.insts[0].ty = Type::Struct(StructId(1))),
            ("alloca name", |f| if let InstKind::Alloca { name, .. } = k(f, 0) { name.push('2') }),
            ("param -> inst operand", |f| *op(f, 1, 0) = Value::Inst(InstId(0))),
            ("param -> global operand", |f| *op(f, 1, 0) = Value::Global(GlobalId(0))),
            ("param index", |f| *op(f, 1, 0) = Value::Param(1)),
            ("inst id", |f| *op(f, 2, 0) = Value::Inst(InstId(3))),
            ("integer constant", |f| *op(f, 2, 1) = Value::i32(6)),
            ("integer constant width", |f| *op(f, 2, 1) = Value::ConstInt(5, Type::int64())),
            ("integer constant sign", |f| *op(f, 2, 1) = Value::ConstInt(5, Type::Int { bits: 32, signed: false })),
            ("integer -> null constant", |f| *op(f, 2, 1) = Value::ConstNull(Type::int32())),
            ("field struct", |f| if let InstKind::FieldAddr { struct_id, .. } = k(f, 3) { *struct_id = StructId(1) }),
            ("field index", |f| if let InstKind::FieldAddr { field, .. } = k(f, 3) { *field = 2 }),
            ("field base", |f| *op(f, 3, 0) = Value::Inst(InstId(0))),
            ("element base", |f| *op(f, 4, 0) = Value::Param(0)),
            ("element index", |f| *op(f, 4, 1) = Value::ConstInt(3, Type::int64())),
            ("binary operator", |f| if let InstKind::Bin { op, .. } = k(f, 5) { *op = BinOp::Sub }),
            ("binary lhs", |f| *op(f, 5, 0) = Value::Inst(InstId(2))),
            ("float constant bits", |f| *op(f, 5, 1) = Value::ConstFloat(2.5, Type::f64())),
            ("float constant width", |f| *op(f, 5, 1) = Value::ConstFloat(1.5, Type::f32())),
            ("operands swapped", |f| if let InstKind::Bin { lhs, rhs, .. } = k(f, 5) { std::mem::swap(lhs, rhs) }),
            ("bin -> cmp", |f| if let InstKind::Bin { lhs, rhs, .. } = k(f, 5).clone() { *k(f, 5) = InstKind::Cmp { op: CmpOp::Eq, lhs, rhs } }),
            ("compare operator", |f| if let InstKind::Cmp { op, .. } = k(f, 6) { *op = CmpOp::Le }),
            ("null pointer type", |f| *op(f, 6, 1) = Value::ConstNull(Type::int8().ptr_to())),
            ("cast kind", |f| if let InstKind::Cast { kind, .. } = k(f, 7) { *kind = CastKind::IntToInt }),
            ("global id", |f| *op(f, 7, 0) = Value::Global(GlobalId(1))),
            ("local callee id", |f| if let InstKind::Call { callee, .. } = k(f, 8) { *callee = Callee::Local(FuncId(1)) }),
            ("local -> external callee", |f| if let InstKind::Call { callee, .. } = k(f, 8) { *callee = Callee::External("f".into()) }),
            ("call argument dropped", |f| if let InstKind::Call { args, .. } = k(f, 8) { args.pop(); }),
            ("call arguments reordered", |f| if let InstKind::Call { args, .. } = k(f, 8) { args.reverse() }),
            ("asserted name", |f| if let InstKind::AssertSafe { var, .. } = k(f, 9) { *var = "y".into() }),
            ("asserted value", |f| *op(f, 9, 0) = Value::Inst(InstId(1))),
            ("external callee name", |f| if let InstKind::Call { callee: Callee::External(n), .. } = k(f, 10) { n.push_str("pg") }),
            ("phi incoming block", |f| if let InstKind::Phi { incoming } = k(f, 11) { incoming[0].0 = BlockId(0) }),
            ("phi incoming value", |f| *op(f, 11, 1) = Value::i32(1)),
            ("phi arm dropped", |f| if let InstKind::Phi { incoming } = k(f, 11) { incoming.pop(); }),
            ("instruction moved to another block", |f| if let Some(id) = f.blocks[0].insts.pop() { f.blocks[2].insts.push(id) }),
            ("branch condition", |f| if let Terminator::CondBr { cond, .. } = t(f, 0) { *cond = Value::Inst(InstId(1)) }),
            ("branch then target", |f| if let Terminator::CondBr { then_bb, .. } = t(f, 0) { *then_bb = BlockId(3) }),
            ("branch else target", |f| if let Terminator::CondBr { else_bb, .. } = t(f, 0) { *else_bb = BlockId(3) }),
            ("switch value", |f| if let Terminator::Switch { value, .. } = t(f, 1) { *value = Value::Inst(InstId(5)) }),
            ("switch case constant", |f| if let Terminator::Switch { cases, .. } = t(f, 1) { cases[1].0 = 3 }),
            ("switch case target", |f| if let Terminator::Switch { cases, .. } = t(f, 1) { cases[0].1 = BlockId(3) }),
            ("switch case dropped", |f| if let Terminator::Switch { cases, .. } = t(f, 1) { cases.pop(); }),
            ("switch default", |f| if let Terminator::Switch { default, .. } = t(f, 1) { *default = BlockId(2) }),
            ("jump target", |f| *t(f, 2) = Terminator::Br(BlockId(4))),
            ("returned value", |f| *t(f, 3) = Terminator::Ret(Some(Value::Inst(InstId(1))))),
            ("value return -> void return", |f| *t(f, 3) = Terminator::Ret(None)),
            ("void return -> unreachable", |f| *t(f, 4) = Terminator::Unreachable),
            ("unreachable -> jump", |f| *t(f, 5) = Terminator::Br(BlockId(0))),
        ];
        let base_fn = every_variant();
        let base = bare_sig(&base_fn);
        let mut sigs = BTreeMap::new();
        for (name, edit) in edits {
            let mut f = base_fn.clone();
            edit(&mut f);
            assert_ne!(f, base_fn, "{name}: the edit must change the IR");
            let sig = bare_sig(&f);
            assert_ne!(sig, base, "{name}: the edit did not reach function_sig");
            if let Some(other) = sigs.insert(sig, *name) {
                panic!("`{name}` and `{other}` hash alike");
            }
        }
        // Floats are keyed by their bits, so even `0.0` and `-0.0` differ.
        let with_float = |c: f64| {
            let mut f = base_fn.clone();
            *op(&mut f, 5, 1) = Value::ConstFloat(c, Type::f64());
            bare_sig(&f)
        };
        assert_ne!(with_float(0.0), with_float(-0.0));
    }

    #[test]
    fn summary_cache_survives_a_poisoned_lock() {
        let cache = SummaryCache::default();
        cache.insert(1, Arc::new(vec![Summary::default()]));
        std::thread::scope(|s| {
            let holder = s.spawn(|| {
                let _map = cache.map.lock().unwrap();
                let _live = cache.live.lock().unwrap();
                panic!("poison the summary cache");
            });
            assert!(holder.join().is_err());
        });
        assert!(cache.map.is_poisoned() && cache.live.is_poisoned());
        cache.seed(vec![(2, Arc::new(vec![Summary::default()]))]);
        cache.set_live(&[1, 2, 3]);
        assert!(cache.get(1, 1).is_some());
        assert!(cache.get(3, 1).is_none());
        cache.insert(3, Arc::new(vec![Summary::default()]));
        let live: Vec<u64> = cache.export_live().iter().map(|(k, _)| *k).collect();
        assert_eq!(live, vec![1, 2, 3]);
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 1 });
    }

    #[test]
    fn config_knobs_change_the_env_hash() {
        let pr = parse_source("t.c", PROG);
        let mut diags = Diagnostics::new();
        let m = build_module(&pr.unit, &mut diags);
        let regions = extract_regions(&m, &["shmat".to_string()], &mut diags);
        let base = AnalysisConfig::default();
        let mut flipped = base.clone();
        flipped.track_control_dependence = !base.track_control_dependence;
        let a = env_hash(&m, &regions, &base, &BTreeSet::new());
        let b = env_hash(&m, &regions, &flipped, &BTreeSet::new());
        assert_ne!(a, b);
    }

    #[test]
    fn env_hash_ignores_list_order() {
        // Same configuration, lists spelled in a different order: summary
        // content hashes must agree or warm-cache runs recompute every SCC.
        let pr = parse_source("t.c", PROG);
        let mut diags = Diagnostics::new();
        let m = build_module(&pr.unit, &mut diags);
        let regions = extract_regions(&m, &["shmat".to_string()], &mut diags);
        let mut base = AnalysisConfig::default();
        base.implicit_critical_calls.push(crate::CriticalCall::new("reboot", 1));
        let mut shuffled = base.clone();
        shuffled.implicit_critical_calls.reverse();
        shuffled.recv_functions.reverse();
        let a = env_hash(&m, &regions, &base, &BTreeSet::new());
        let b = env_hash(&m, &regions, &shuffled, &BTreeSet::new());
        assert_eq!(a, b);
    }

    #[test]
    fn env_hash_sees_policy_but_not_its_declaration_order() {
        use crate::policy::Policy;
        let pr = parse_source("t.c", PROG);
        let mut diags = Diagnostics::new();
        let m = build_module(&pr.unit, &mut diags);
        let regions = extract_regions(&m, &["shmat".to_string()], &mut diags);
        let base = AnalysisConfig::default();
        let mut labeled = base.clone();
        labeled.policy = Policy::builder().label("sensor_a").label("sensor_b").build();
        let mut reordered = base.clone();
        reordered.policy = Policy::builder().label("sensor_b").label("sensor_a").build();
        let a = env_hash(&m, &regions, &base, &BTreeSet::new());
        let b = env_hash(&m, &regions, &labeled, &BTreeSet::new());
        let c = env_hash(&m, &regions, &reordered, &BTreeSet::new());
        assert_ne!(a, b, "a declared policy must invalidate summaries");
        assert_eq!(b, c, "declaration order must not");
    }
    /// The live SCC keys of one summary-engine run over `main` in `fs`.
    fn live_keys(fs: &VirtualFs, main: &str) -> Vec<u64> {
        let analyzer = crate::Analyzer::new(AnalysisConfig::with_engine(crate::Engine::Summary));
        analyzer.analyze_program(main, fs).expect("program analyzes");
        let keys = lock_recover(&analyzer.cache.live).clone();
        keys
    }

    /// Content keys pinned bit for bit. `function_sig` folds in every
    /// shm-pointer and points-to fact of every value, `ObjId` numbering
    /// included, so these literals also pin phase 1 and the points-to
    /// solver: a change to either, to the IR, or to the hashing shows up
    /// here, and stores written before it stop hitting.
    #[test]
    fn pinned_scc_hashes() {
        const IP: [u64; 46] = [
            0xf8db12e2268f2327,
            0x047cd5dbb8a20cf2,
            0x6a7360428ca9d96b,
            0xfccfeb5227af2119,
            0xd8fd8fe9d25e3f69,
            0x3b22377595231d45,
            0xffb071d15e3ab52f,
            0x3467f1e389601847,
            0x75085f8dfbac9c17,
            0x4cc4d8982337bbac,
            0xf55b4ba0967c07ae,
            0x07d37383d3c40a6b,
            0xab5200e323300ebd,
            0xcb4e62f382f6e402,
            0x888b69a7e845f6a1,
            0xd1df062e21f924b7,
            0x1fc26e10c2b2f1f5,
            0xa8dc2c676b84db47,
            0xa7595615a2eb29cd,
            0x0f14a780b7d165c4,
            0x8dc96f3fc149d55f,
            0x35698b1f55a25367,
            0xc28795c01051be21,
            0x506f907035bdef37,
            0x21d89275a376cba8,
            0x65fa73a8b8b0ccf2,
            0x7e49e65fdf964894,
            0xbf43ad3963526577,
            0xc173cf63489586e0,
            0xe9377b6b4ae0e515,
            0x5c3cc57108f229f6,
            0xf9789585c169c1d9,
            0xd05541f9bad78825,
            0x7cdf8dbd48f31949,
            0x517e94a0cacbef25,
            0x46042e3fe8d4e00b,
            0x976d7585efe4b6b3,
            0x8cb57a8d3d258f49,
            0x28815ada52ab1a87,
            0x3f4d9f554f953db6,
            0xda98e27a95270a77,
            0x3feaf86ec7f4a3df,
            0xbaabf72f15cc53c6,
            0x546c4a163fb555d7,
            0x450b1453d680d5bb,
            0x7e40d5b7619ddc6c,
        ];
        const GENERIC: [u64; 45] = [
            0x5a338568d0dab5e4,
            0x4f8d8b7ad38b7a1e,
            0x1a0321a879e402cb,
            0x5b025ec84e23bcef,
            0x9e08a46ddb8c291e,
            0x1be0ddeec4fb0720,
            0x17133d55d0edf575,
            0x45313d3e70397394,
            0x948431dfc813c43e,
            0xf46a4c45eff02c93,
            0xa82d460fa149cecb,
            0x94797ca0c0fc4ee3,
            0x0e4b53a85eaf1208,
            0xd932ee06081bc737,
            0xfc362e865a4075aa,
            0x83ed4c90ae0fad15,
            0x851df656b4685dbc,
            0x2909b9ddc3ea96eb,
            0x4329210022baa9db,
            0xf9d1bcb4d0b4525d,
            0xf03b4751141a4f31,
            0x5e25b1278f657a17,
            0x62006a52f5e7d047,
            0x74a1686e769f6210,
            0xe444aa227042c577,
            0xceaf1d2523250f9a,
            0x713f8e4851136e22,
            0xeac7e8be1643bb48,
            0x5f0971bb9c56426b,
            0x72eb76ad47368bf5,
            0x4352c6f4d85b2628,
            0x6250ddc4e9849f22,
            0x4e870e8d9715f9d0,
            0x8fb98832e4ff806d,
            0x6b4bed7b9caa6634,
            0xa01d68f5be89de12,
            0xe49df7f61490561d,
            0x79388eed62dc691a,
            0x29d21323596c59fc,
            0x833a5996d77da98e,
            0x188f5ccb803c4658,
            0x81d172096f1e7bb9,
            0xc21362aecac3699d,
            0x2713487a3b7d2888,
            0xb483945c07df72bb,
        ];
        const DOUBLE_IP: [u64; 42] = [
            0xcd8395bcde0e2617,
            0x0b4c327d2ed12bb3,
            0x5e2caaeaa7320a82,
            0x5bfc44b8cdb5d996,
            0xf61bc97be7600353,
            0x33c844d48b03d149,
            0x83fc35b95a870aa4,
            0x8106997420926026,
            0x12cd505b784f87f9,
            0x8bff387f3079bed1,
            0x5137e1f4022b4760,
            0x7e3d738da59839e7,
            0x9bad6b60f1412a8d,
            0x4a076e9c5ca53ff3,
            0x56bf8d0b1f51b3f4,
            0x8224fef2e2b7d30e,
            0xac80c66c7600f445,
            0xa7974f70aece0b92,
            0x58a16b89b9c27e8e,
            0x35f5a13723e7c1a3,
            0xb844b29c70792ecc,
            0xfdecb0c98f916976,
            0xb13f0a6572abc026,
            0x88c12c7ba68d5713,
            0x943aae1990794a9c,
            0x7861450a528d4d7b,
            0xd0d98587ba0c7c3b,
            0x8310e6532026b6c7,
            0x22f154774b8dc3c7,
            0x775710fd674c4744,
            0x4210bbcc4b2faf4d,
            0x249c395671c84d7f,
            0xe4bea4b98ee4440d,
            0x75f8d9714741f7c9,
            0xf8c7b2165b3604cb,
            0x6a53aa3aa0e55cff,
            0x205e3cef44f4a84d,
            0x2ba8d1a2b84f116b,
            0x108f27b0b655fec4,
            0x1bd545d50971d2af,
            0x924fdd14bc71b1b8,
            0xd632d626d4a9c191,
        ];
        const FIG2: [u64; 4] =
            [0x27a223552d32ed37, 0x3712a84bf5d6a655, 0x9a6a1785c34e13c0, 0x36b3ce0a8b55bd99];
        const MONOREPO_SMALL: [u64; 25] = [
            0xed0520f30cfb2c10,
            0xebf619cedaba4d45,
            0x024cf0e3fe8e58b7,
            0x20c4f43372139a71,
            0x0295517e2a1dd62b,
            0xcbf5680a6a320d52,
            0xb8df00df9b436c8e,
            0x144a7907730977fd,
            0xfb184da1287b26bb,
            0x43255401225f80c6,
            0x9eb1f22d35ca86dd,
            0xe1e38f729f9563fd,
            0xbe1e57c07353304f,
            0xa99a0a598a601819,
            0xc99eca3a8270850a,
            0x180b0799c442908d,
            0x9a22b19da1322179,
            0x4497a789b6bbb7dd,
            0xcb260f619f876e8e,
            0xdf415ddd155a53d5,
            0xfb99ed5fcf19a76f,
            0x42ebefd738d5eb40,
            0xe4f2e7fe14f9bb46,
            0xe3fcd1630e7a190c,
            0x4ebd0a76fed4a56d,
        ];

        let single = |file: &str, src: &str| {
            let mut fs = VirtualFs::new();
            fs.add(file, src);
            live_keys(&fs, file)
        };
        let systems = safeflow_corpus::systems();
        for (system, pinned) in systems.iter().zip([&IP[..], &GENERIC[..], &DOUBLE_IP[..]]) {
            assert_eq!(single(system.core_file, system.core_source), pinned, "{}", system.name);
        }
        assert_eq!(single("fig2.c", safeflow_corpus::figure2_example()), FIG2);
        let mut fs = VirtualFs::new();
        for (name, text) in generate_monorepo(MonorepoParams::small()) {
            fs.add(name, text);
        }
        assert_eq!(live_keys(&fs, "main.c"), MONOREPO_SMALL);
    }

    /// One FNV-64 fold of the live SCC table of a summary-engine run over
    /// `main` in `fs`: each entry's key, member count and encoded member
    /// summaries, in `export_live` order — the bytes the store's SCC table
    /// holds.
    fn live_summary_fold(fs: &VirtualFs, main: &str) -> u64 {
        use std::hash::Hasher;
        let analyzer = crate::Analyzer::new(AnalysisConfig::with_engine(crate::Engine::Summary));
        analyzer.analyze_program(main, fs).expect("program analyzes");
        let mut h = Fnv64::new();
        let mut bytes = Vec::new();
        for (key, summaries) in analyzer.cache.export_live() {
            h.write_u64(key);
            h.write_u32(summaries.len() as u32);
            for s in summaries.iter() {
                bytes.clear();
                s.encode(&mut bytes);
                h.write(&bytes);
            }
        }
        h.finish()
    }

    /// The summaries themselves, pinned through their store encoding: a
    /// change to the fact-set representation or to the engine's iteration
    /// that moved a summary, or the bytes a store holds for it, shows up
    /// here.
    #[test]
    fn pinned_summary_bytes() {
        let single = |file: &str, src: &str| {
            let mut fs = VirtualFs::new();
            fs.add(file, src);
            live_summary_fold(&fs, file)
        };
        let systems = safeflow_corpus::systems();
        let mut got: Vec<(&str, u64)> = systems
            .iter()
            .map(|system| (system.name, single(system.core_file, system.core_source)))
            .collect();
        got.push(("fig2", single("fig2.c", safeflow_corpus::figure2_example())));
        let mut fs = VirtualFs::new();
        for (name, text) in generate_monorepo(MonorepoParams::small()) {
            fs.add(name, text);
        }
        got.push(("monorepo small", live_summary_fold(&fs, "main.c")));
        let pinned: [(&str, u64); 5] = [
            ("IP", 0x623b6b5540278a1d),
            ("Generic Simplex", 0x2c4852a07154a865),
            ("Double IP", 0xa44a4ec7a6bbb433),
            ("fig2", 0x8342bcde89c3aeca),
            ("monorepo small", 0xdc2813b6c0187d8e),
        ];
        assert_eq!(got, pinned);
    }
}
