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
//!   affected chain. The reuse is a value, not a shared map: each run reads
//!   the previous run's [`SccTable`] and returns its own, holding one entry
//!   per distinct live key — this run's clean result, or else the previous
//!   table's entry under that key. Its `summary.cache_hits` and
//!   `summary.cache_misses` work metrics count per member function, so
//!   tests can assert both properties.
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
//! terminator and annotation into the [`StableHasher`], with lists length-prefixed
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
//! a value without facts reads as the shared empty set.
//! `tests::pinned_scc_hashes` holds the keys of the corpus programs fixed;
//! they move only when the IR, the facts, this walk or the hash
//! ([`StableHasher`], one folded multiply per written word) does.

use crate::config::AnalysisConfig;
use crate::regions::RegionMap;
use crate::scope::Scope;
use crate::shmptr::ShmPointers;
use crate::summary::Summary;
use safeflow_ir::{
    CallGraph, Callee, FuncId, GlobalId, InstKind, Module, Terminator, Type, TypeKind, TypeTable,
    Value,
};
use safeflow_points_to::PointsTo;
use safeflow_syntax::annot::{AnnExpr, Annotation};
use safeflow_syntax::span::Span;
use safeflow_util::hash::StableHasher;
use safeflow_util::metrics::{Class, Metrics};
use std::collections::{BTreeSet, HashMap};
use std::hash::Hasher;
use std::sync::Arc;

/// The summary table of one summary-engine run: one entry per distinct
/// live SCC content key, in SCC order, holding that SCC's member summaries
/// (member order). It is a plain value: a run reads the previous run's
/// table and returns its own, and the store encodes exactly this.
pub(crate) type SccTable = Vec<(u64, Arc<Vec<Summary>>)>;

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
        let mut h = StableHasher::new();
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
    let mut h = StableHasher::new();
    for r in regions.iter() {
        h.write_u32(r.id.0);
        h.write_str(r.name.as_str());
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
        h.write_str(g.name.as_str());
    }
    hash_summary_config(&mut h, config);
    h.finish()
}

/// Folds in the configuration every summary reads: the critical calls
/// with their clearances, the recv specs and the normalized label policy.
/// Lists are hashed sorted and the policy normalized, because neither list
/// order nor label declaration order is semantic: configs differing only
/// there must share summaries and stored entries. [`crate::store::config_hash`] keys the
/// store with the same helper.
pub(crate) fn hash_summary_config(h: &mut StableHasher, config: &AnalysisConfig) {
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
    let (func, types) = (module.function(fid), &module.types);
    let mut h = StableHasher::new();
    h.write_str(func.name.as_str());
    hash_type(&mut h, types, func.ret);
    h.write_u8(func.is_definition as u8);
    h.write_usize(func.params.len());
    for p in &func.params {
        h.write_str(p.name.as_str());
        hash_type(&mut h, types, p.ty);
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
            hash_inst_kind(&mut h, types, &inst.kind);
            hash_type(&mut h, types, inst.ty);
            hash_span(&mut h, inst.span);
            hash_value_facts(&mut h, shm, pt, fid, &Value::Inst(iid));
            // Store/load targets have facts on their operands too.
            inst.kind.for_each_operand(|op| hash_value_facts(&mut h, shm, pt, fid, op));
        }
        hash_terminator(&mut h, types, &block.terminator);
    }
    h.finish()
}

/// Folds in the shm-region facts and points-to set of one value.
fn hash_value_facts(
    h: &mut StableHasher,
    shm: &ShmPointers,
    pt: &PointsTo,
    fid: FuncId,
    v: &Value,
) {
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

fn hash_span(h: &mut StableHasher, span: Span) {
    h.write_u32(span.file.0);
    h.write_u32(span.lo);
    h.write_u32(span.hi);
}

/// Folds in the structure of `ty`, read through `types`. A handle's index
/// is never written: it depends on the order the module first used its
/// types, so a key built from it would move with unrelated code.
fn hash_type(h: &mut StableHasher, types: &TypeTable, ty: Type) {
    match types.kind(ty) {
        TypeKind::Void => h.write_u8(0),
        TypeKind::Int { bits, signed } => {
            h.write_u8(1);
            h.write_u8(bits);
            h.write_u8(signed as u8);
        }
        TypeKind::Float { bits } => {
            h.write_u8(2);
            h.write_u8(bits);
        }
        TypeKind::Ptr(pointee) => {
            h.write_u8(3);
            hash_type(h, types, pointee);
        }
        TypeKind::Array(elem, len) => {
            h.write_u8(4);
            hash_type(h, types, elem);
            h.write_u64(len);
        }
        TypeKind::Struct(id) => {
            h.write_u8(5);
            h.write_u32(id.0);
        }
    }
}

fn hash_value(h: &mut StableHasher, types: &TypeTable, v: &Value) {
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
            hash_type(h, types, *ty);
        }
        Value::ConstFloat(c, ty) => {
            h.write_u8(4);
            h.write_u64(c.to_bits());
            hash_type(h, types, *ty);
        }
        Value::ConstNull(ty) => {
            h.write_u8(5);
            hash_type(h, types, *ty);
        }
    }
}

fn hash_inst_kind(h: &mut StableHasher, types: &TypeTable, kind: &InstKind) {
    match kind {
        InstKind::Alloca { ty, name } => {
            h.write_u8(0);
            hash_type(h, types, *ty);
            h.write_str(name.as_str());
        }
        InstKind::Load { ptr } => {
            h.write_u8(1);
            hash_value(h, types, ptr);
        }
        InstKind::Store { ptr, value } => {
            h.write_u8(2);
            hash_value(h, types, ptr);
            hash_value(h, types, value);
        }
        InstKind::FieldAddr { base, struct_id, field } => {
            h.write_u8(3);
            hash_value(h, types, base);
            h.write_u32(struct_id.0);
            h.write_u32(*field);
        }
        InstKind::ElemAddr { base, index } => {
            h.write_u8(4);
            hash_value(h, types, base);
            hash_value(h, types, index);
        }
        InstKind::Bin { op, lhs, rhs } => {
            h.write_u8(5);
            h.write_u8(*op as u8);
            hash_value(h, types, lhs);
            hash_value(h, types, rhs);
        }
        InstKind::Cmp { op, lhs, rhs } => {
            h.write_u8(6);
            h.write_u8(*op as u8);
            hash_value(h, types, lhs);
            hash_value(h, types, rhs);
        }
        InstKind::Cast { kind, value } => {
            h.write_u8(7);
            h.write_u8(*kind as u8);
            hash_value(h, types, value);
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
                    h.write_str(name.as_str());
                }
            }
            h.write_usize(args.len());
            for a in args {
                hash_value(h, types, a);
            }
        }
        InstKind::Phi { incoming } => {
            h.write_u8(9);
            h.write_usize(incoming.len());
            for (b, v) in incoming {
                h.write_u32(b.0);
                hash_value(h, types, v);
            }
        }
        InstKind::AssertSafe { var, value } => {
            h.write_u8(10);
            h.write_str(var.as_str());
            hash_value(h, types, value);
        }
    }
}

fn hash_terminator(h: &mut StableHasher, types: &TypeTable, term: &Terminator) {
    match term {
        Terminator::Br(b) => {
            h.write_u8(0);
            h.write_u32(b.0);
        }
        Terminator::CondBr { cond, then_bb, else_bb } => {
            h.write_u8(1);
            hash_value(h, types, cond);
            h.write_u32(then_bb.0);
            h.write_u32(else_bb.0);
        }
        Terminator::Switch { value, cases, default } => {
            h.write_u8(2);
            hash_value(h, types, value);
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
                    hash_value(h, types, v);
                }
            }
        }
        Terminator::Unreachable => h.write_u8(4),
    }
}

fn hash_annotation(h: &mut StableHasher, ann: &Annotation) {
    match ann {
        Annotation::AssumeCore { ptr, offset, size, span } => {
            h.write_u8(0);
            h.write_str(ptr.as_str());
            hash_ann_expr(h, offset);
            hash_ann_expr(h, size);
            hash_span(h, *span);
        }
        Annotation::AssertSafe { var, span } => {
            h.write_u8(1);
            h.write_str(var.as_str());
            hash_span(h, *span);
        }
        Annotation::ShmInit { span } => {
            h.write_u8(2);
            hash_span(h, *span);
        }
        Annotation::ShmVar { ptr, size, span } => {
            h.write_u8(3);
            h.write_str(ptr.as_str());
            hash_ann_expr(h, size);
            hash_span(h, *span);
        }
        Annotation::Noncore { target, span } => {
            h.write_u8(4);
            h.write_str(target.as_str());
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
            h.write_str(ptr.as_str());
            hash_ann_expr(h, size);
            h.write_str(label);
            hash_span(h, *span);
        }
        Annotation::AssumeDeclassify { ptr, offset, size, to, span } => {
            h.write_u8(8);
            h.write_str(ptr.as_str());
            hash_ann_expr(h, offset);
            hash_ann_expr(h, size);
            h.write_str(to);
            hash_span(h, *span);
        }
    }
}

fn hash_ann_expr(h: &mut StableHasher, e: &AnnExpr) {
    let (tag, a, b) = match e {
        AnnExpr::Int(v) => {
            h.write_u8(0);
            return h.write_i64(*v);
        }
        AnnExpr::Sizeof(name) => {
            h.write_u8(1);
            return h.write_str(name.as_str());
        }
        AnnExpr::Ident(name) => {
            h.write_u8(2);
            return h.write_str(name.as_str());
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
    use safeflow_util::Symbol;
    use std::collections::BTreeMap;

    fn hashes_for(src: &str) -> (Vec<String>, Vec<u64>) {
        let pr = parse_source("t.c", src);
        assert!(!pr.diags.has_errors(), "{:?}", pr.diags);
        let mut diags = Diagnostics::new();
        let m = build_module(&pr.unit, &mut diags);
        assert!(!diags.has_errors(), "{diags:?}");
        let regions = extract_regions(&m, &mut diags);
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
                scc.iter().map(|&f| m.function(f).name.as_str()).collect::<Vec<_>>().join("+")
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
    /// The types it uses are interned in `types`.
    fn every_variant(types: &mut TypeTable) -> Function {
        let p32 = types.ptr_to(Type::int32());
        let buf = types.array_of(p32, 4);
        let (i, f64c) = (|n| Value::Inst(InstId(n)), Value::ConstFloat(1.5, Type::f64()));
        #[rustfmt::skip]
        let kinds = vec![
            (InstKind::Alloca { ty: buf, name: "buf".into() }, p32),
            (InstKind::Load { ptr: Value::Param(0) }, Type::int32()),
            (InstKind::Store { ptr: i(0), value: Value::i32(5) }, Type::VOID),
            (InstKind::FieldAddr { base: Value::Param(0), struct_id: StructId(0), field: 1 }, p32),
            (InstKind::ElemAddr { base: i(0), index: Value::ConstInt(2, Type::int64()) }, p32),
            (InstKind::Bin { op: BinOp::Add, lhs: i(1), rhs: f64c }, Type::f64()),
            (InstKind::Cmp { op: CmpOp::Lt, lhs: i(5), rhs: Value::ConstNull(Type::void_ptr()) }, Type::int32()),
            (InstKind::Cast { kind: CastKind::IntToFloat, value: Value::Global(GlobalId(0)) }, Type::f32()),
            (InstKind::Call { callee: Callee::Local(FuncId(0)), args: vec![i(1), Value::Param(0)] }, Type::int32()),
            (InstKind::AssertSafe { var: "x".into(), value: i(8) }, Type::VOID),
            (InstKind::Call { callee: Callee::External("kill".into()), args: vec![] }, Type::int32()),
            (InstKind::Phi { incoming: vec![(BlockId(1), i(1)), (BlockId(2), Value::i32(0))] }, Type::int32()),
        ];
        let span = |lo: u32| Span::new(FileId(0), lo, lo + 5);
        let insts =
            kinds.into_iter().zip(0..).map(|((kind, ty), n)| Inst { kind, ty, span: span(10 * n) });
        let block = |insts: Vec<u32>, terminator| BasicBlock {
            insts: insts.into_iter().map(InstId).collect(),
            terminator,
            name: "".into(),
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

    /// `function_sig` of `func`, whose types are interned in `types`, over
    /// empty fact tables, so only the structural walk can tell two
    /// functions apart.
    fn bare_sig(func: &Function, types: &TypeTable) -> u64 {
        let mut m = Module::new();
        m.types = types.clone();
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
        type Edit = fn(&mut Function, &mut TypeTable);
        fn k(f: &mut Function, i: usize) -> &mut InstKind {
            &mut f.insts[i].kind
        }
        /// Rebuilds the type `[n x e]` of alloca 0 from `remake(e, n)`.
        fn remake_array(
            f: &mut Function,
            t: &mut TypeTable,
            remake: impl FnOnce(&mut TypeTable, Type, u64) -> (Type, u64),
        ) {
            if let InstKind::Alloca { ty, .. } = k(f, 0) {
                if let TypeKind::Array(e, n) = t.kind(*ty) {
                    let (e, n) = remake(t, e, n);
                    *ty = t.array_of(e, n);
                }
            }
        }
        /// Sets operand `n` of instruction `i` to `v`.
        fn op(f: &mut Function, i: usize, n: usize, v: Value) {
            let mut at = 0;
            f.insts[i].kind.for_each_operand_mut(|o| {
                if at == n {
                    *o = v;
                }
                at += 1;
            });
        }
        fn t(f: &mut Function, b: usize) -> &mut Terminator {
            &mut f.blocks[b].terminator
        }
        // Each edit changes one field in place; a pattern that does not
        // match leaves the IR unchanged, which the loop below rejects.
        #[rustfmt::skip]
        let edits: &[(&str, Edit)] = &[
            ("function name", |f, _| f.name = "g".into()),
            ("return type", |f, _| f.ret = Type::int64()),
            ("is_definition", |f, _| f.is_definition = false),
            ("param name", |f, _| f.params[0].name = "q".into()),
            ("param type", |f, t| f.params[0].ty = t.ptr_to(Type::int8())),
            ("annotation kind", |f, _| f.annotations[0] = Annotation::ShmInit { span: f.annotations[0].span() }),
            ("annotation span", |f, _| if let Annotation::AssumeCore { span, .. } = &mut f.annotations[0] { span.lo += 1 }),
            ("annotation pointer", |f, _| if let Annotation::AssumeCore { ptr, .. } = &mut f.annotations[0] { *ptr = "q".into() }),
            ("annotation constant", |f, _| if let Annotation::AssumeCore { offset, .. } = &mut f.annotations[0] { *offset = AnnExpr::Int(4) }),
            ("annotation operator", |f, _| if let Annotation::AssumeCore { size, .. } = &mut f.annotations[0] {
                if let AnnExpr::Mul(a, b) = size.clone() { *size = AnnExpr::Add(a, b) }
            }),
            ("annotation sizeof -> ident", |f, _| if let Annotation::AssumeCore { size, .. } = &mut f.annotations[0] {
                if let AnnExpr::Mul(_, b) = size.clone() { *size = AnnExpr::Mul(Box::new(AnnExpr::Ident("int".into())), b) }
            }),
            ("instruction type", |f, _| f.insts[1].ty = Type::int64()),
            ("span file", |f, _| f.insts[1].span.file = FileId(1)),
            ("span lo", |f, _| f.insts[1].span.lo += 1),
            ("span hi", |f, _| f.insts[1].span.hi += 1),
            ("array length", |f, t| remake_array(f, t, |_, e, _| (e, 5))),
            ("nested pointer", |f, t| remake_array(f, t, |t, e, n| (t.ptr_to(e), n))),
            ("pointee type", |f, t| remake_array(f, t, |t, _, n| { let s = t.intern(TypeKind::Struct(StructId(0))); (t.ptr_to(s), n) })),
            ("struct type id", |f, t| f.insts[0].ty = t.intern(TypeKind::Struct(StructId(1)))),
            ("alloca name", |f, _| if let InstKind::Alloca { name, .. } = k(f, 0) { *name = Symbol::intern(&format!("{name}2")) }),
            ("param -> inst operand", |f, _| op(f, 1, 0, Value::Inst(InstId(0)))),
            ("param -> global operand", |f, _| op(f, 1, 0, Value::Global(GlobalId(0)))),
            ("param index", |f, _| op(f, 1, 0, Value::Param(1))),
            ("inst id", |f, _| op(f, 2, 0, Value::Inst(InstId(3)))),
            ("integer constant", |f, _| op(f, 2, 1, Value::i32(6))),
            ("integer constant width", |f, _| op(f, 2, 1, Value::ConstInt(5, Type::int64()))),
            ("integer constant sign", |f, _| op(f, 2, 1, Value::ConstInt(5, Type::int(32, false)))),
            ("integer -> null constant", |f, _| op(f, 2, 1, Value::ConstNull(Type::int32()))),
            ("field struct", |f, _| if let InstKind::FieldAddr { struct_id, .. } = k(f, 3) { *struct_id = StructId(1) }),
            ("field index", |f, _| if let InstKind::FieldAddr { field, .. } = k(f, 3) { *field = 2 }),
            ("field base", |f, _| op(f, 3, 0, Value::Inst(InstId(0)))),
            ("element base", |f, _| op(f, 4, 0, Value::Param(0))),
            ("element index", |f, _| op(f, 4, 1, Value::ConstInt(3, Type::int64()))),
            ("binary operator", |f, _| if let InstKind::Bin { op, .. } = k(f, 5) { *op = BinOp::Sub }),
            ("binary lhs", |f, _| op(f, 5, 0, Value::Inst(InstId(2)))),
            ("float constant bits", |f, _| op(f, 5, 1, Value::ConstFloat(2.5, Type::f64()))),
            ("float constant width", |f, _| op(f, 5, 1, Value::ConstFloat(1.5, Type::f32()))),
            ("operands swapped", |f, _| if let InstKind::Bin { lhs, rhs, .. } = k(f, 5) { std::mem::swap(lhs, rhs) }),
            ("bin -> cmp", |f, _| if let InstKind::Bin { lhs, rhs, .. } = k(f, 5).clone() { *k(f, 5) = InstKind::Cmp { op: CmpOp::Eq, lhs, rhs } }),
            ("compare operator", |f, _| if let InstKind::Cmp { op, .. } = k(f, 6) { *op = CmpOp::Le }),
            ("null pointer type", |f, t| op(f, 6, 1, Value::ConstNull(t.ptr_to(Type::int8())))),
            ("cast kind", |f, _| if let InstKind::Cast { kind, .. } = k(f, 7) { *kind = CastKind::IntToInt }),
            ("global id", |f, _| op(f, 7, 0, Value::Global(GlobalId(1)))),
            ("local callee id", |f, _| if let InstKind::Call { callee, .. } = k(f, 8) { *callee = Callee::Local(FuncId(1)) }),
            ("local -> external callee", |f, _| if let InstKind::Call { callee, .. } = k(f, 8) { *callee = Callee::External("f".into()) }),
            ("call argument dropped", |f, _| if let InstKind::Call { args, .. } = k(f, 8) { args.pop(); }),
            ("call arguments reordered", |f, _| if let InstKind::Call { args, .. } = k(f, 8) { args.reverse() }),
            ("asserted name", |f, _| if let InstKind::AssertSafe { var, .. } = k(f, 9) { *var = "y".into() }),
            ("asserted value", |f, _| op(f, 9, 0, Value::Inst(InstId(1)))),
            ("external callee name", |f, _| if let InstKind::Call { callee: Callee::External(n), .. } = k(f, 10) { *n = Symbol::intern(&format!("{n}pg")) }),
            ("phi incoming block", |f, _| if let InstKind::Phi { incoming } = k(f, 11) { incoming[0].0 = BlockId(0) }),
            ("phi incoming value", |f, _| op(f, 11, 1, Value::i32(1))),
            ("phi arm dropped", |f, _| if let InstKind::Phi { incoming } = k(f, 11) { incoming.pop(); }),
            ("instruction moved to another block", |f, _| if let Some(id) = f.blocks[0].insts.pop() { f.blocks[2].insts.push(id) }),
            ("branch condition", |f, _| if let Terminator::CondBr { cond, .. } = t(f, 0) { *cond = Value::Inst(InstId(1)) }),
            ("branch then target", |f, _| if let Terminator::CondBr { then_bb, .. } = t(f, 0) { *then_bb = BlockId(3) }),
            ("branch else target", |f, _| if let Terminator::CondBr { else_bb, .. } = t(f, 0) { *else_bb = BlockId(3) }),
            ("switch value", |f, _| if let Terminator::Switch { value, .. } = t(f, 1) { *value = Value::Inst(InstId(5)) }),
            ("switch case constant", |f, _| if let Terminator::Switch { cases, .. } = t(f, 1) { cases[1].0 = 3 }),
            ("switch case target", |f, _| if let Terminator::Switch { cases, .. } = t(f, 1) { cases[0].1 = BlockId(3) }),
            ("switch case dropped", |f, _| if let Terminator::Switch { cases, .. } = t(f, 1) { cases.pop(); }),
            ("switch default", |f, _| if let Terminator::Switch { default, .. } = t(f, 1) { *default = BlockId(2) }),
            ("jump target", |f, _| *t(f, 2) = Terminator::Br(BlockId(4))),
            ("returned value", |f, _| *t(f, 3) = Terminator::Ret(Some(Value::Inst(InstId(1))))),
            ("value return -> void return", |f, _| *t(f, 3) = Terminator::Ret(None)),
            ("void return -> unreachable", |f, _| *t(f, 4) = Terminator::Unreachable),
            ("unreachable -> jump", |f, _| *t(f, 5) = Terminator::Br(BlockId(0))),
        ];
        let mut types = TypeTable::new();
        let base_fn = every_variant(&mut types);
        let base = bare_sig(&base_fn, &types);
        let mut sigs = BTreeMap::new();
        for (name, edit) in edits {
            let mut f = base_fn.clone();
            edit(&mut f, &mut types);
            assert_ne!(f, base_fn, "{name}: the edit must change the IR");
            let sig = bare_sig(&f, &types);
            assert_ne!(sig, base, "{name}: the edit did not reach function_sig");
            if let Some(other) = sigs.insert(sig, *name) {
                panic!("`{name}` and `{other}` hash alike");
            }
        }
        // Floats are keyed by their bits, so even `0.0` and `-0.0` differ.
        let with_float = |c: f64| {
            let mut f = base_fn.clone();
            op(&mut f, 5, 1, Value::ConstFloat(c, Type::f64()));
            bare_sig(&f, &types)
        };
        assert_ne!(with_float(0.0), with_float(-0.0));
    }

    /// One summary-engine run of `main` in `fs` under `config`, over the
    /// `prior` table: the result and the run's own table.
    fn run_over(
        config: &AnalysisConfig,
        fs: &VirtualFs,
        main: &str,
        prior: &SccTable,
    ) -> (crate::AnalysisResult, SccTable) {
        crate::Analyzer::new(config.clone()).run(main, fs, prior).expect("program analyzes")
    }

    /// A run reads the table it is handed and returns its own: a warm run
    /// hits every SCC and keeps the same keys, and an edit re-summarizes
    /// `leaf`'s caller chain into a table of one entry per live key, of
    /// which only `other`'s is the cold run's.
    #[test]
    fn summary_table_passes_from_run_to_run() {
        let config = AnalysisConfig::with_engine(crate::Engine::Summary);
        let run = |src: &str, prior: &SccTable| {
            let mut fs = VirtualFs::new();
            fs.add("t.c", src);
            let (result, table) = run_over(&config, &fs, "t.c", prior);
            let work = &result.metrics.work;
            ((work["summary.cache_hits"], work["summary.cache_misses"]), table)
        };
        let keys = |table: &SccTable| table.iter().map(|(k, _)| *k).collect::<Vec<_>>();

        let (work, cold) = run(PROG, &SccTable::new());
        assert_eq!(work, (0, 4));
        let (work, warm) = run(PROG, &cold);
        assert_eq!(work, (4, 0));
        assert_eq!(keys(&warm), keys(&cold));
        let (work, edited) = run(&PROG.replace("x + 1", "x + 2"), &warm);
        assert_eq!(work, (1, 3));
        assert_eq!(edited.len(), 4);
        assert_eq!(keys(&edited).iter().filter(|k| keys(&cold).contains(k)).count(), 1);
    }

    /// A degraded run leaves no poisoned summary in the table it returns,
    /// and a degraded run over a warm table matches one over an empty
    /// table: tainted dependents recompute instead of replaying.
    #[test]
    fn poisoned_cache_entries_are_never_reused() {
        use crate::{FaultKind, FaultPlan, FaultSite};
        let mut fs = VirtualFs::new();
        fs.add("figure2.c", safeflow_corpus::figure2_example());
        let run =
            |config: &AnalysisConfig, prior: &SccTable| run_over(config, &fs, "figure2.c", prior);
        let config = AnalysisConfig::with_engine(crate::Engine::Summary);

        // 1. Clean run, empty table.
        let (clean, table) = run(&config, &SccTable::new());
        let clean = clean.render();

        // 2. Degraded run over the warm table: every SCC that computes a
        //    summary is forbidden from caching it, and SCC 0's task panics.
        let armed = config.clone().with_fault_plan(
            FaultPlan::panic_at(FaultSite::SccAnalysis, 0).with_fault(
                FaultSite::SummaryCache,
                None,
                FaultKind::Panic,
            ),
        );
        let (degraded, table) = run(&armed, &table);
        assert_eq!(degraded.report.exit_code(), 3);
        assert!(degraded.render().contains("DEGRADED RUN"));

        // 3. Disarmed, over the degraded run's table: the report must be
        //    the clean one byte for byte. Had a top/poisoned summary
        //    leaked into the table, findings would change here.
        let (replay, table) = run(&config, &table);
        assert_eq!(replay.render(), clean, "a degraded run must not poison the summary table");

        // 4. A degraded run over the (clean) warm table must match the
        //    same degraded run over an empty one.
        let armed = config.with_fault_plan(FaultPlan::panic_at(FaultSite::SccAnalysis, 0));
        let warm = run(&armed, &table).0.render();
        let cold = run(&armed, &SccTable::new()).0.render();
        assert_eq!(warm, cold, "warm-table and empty-table degraded runs must agree");
    }

    #[test]
    fn config_knobs_change_the_env_hash() {
        let pr = parse_source("t.c", PROG);
        let mut diags = Diagnostics::new();
        let m = build_module(&pr.unit, &mut diags);
        let regions = extract_regions(&m, &mut diags);
        let base = AnalysisConfig::default();
        let mut flipped = base.clone();
        flipped.implicit_critical_calls.push(crate::CriticalCall::new("reboot", 1));
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
        let regions = extract_regions(&m, &mut diags);
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
        let regions = extract_regions(&m, &mut diags);
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
        let config = AnalysisConfig::with_engine(crate::Engine::Summary);
        run_over(&config, fs, main, &SccTable::new()).1.iter().map(|(k, _)| *k).collect()
    }

    /// Content keys pinned bit for bit. `function_sig` folds in every
    /// shm-pointer and points-to fact of every value, `ObjId` numbering
    /// included, so these literals also pin phase 1 and the points-to
    /// solver: a change to either, to the IR, or to the hashing shows up
    /// here, and stores written before it stop hitting.
    #[test]
    fn pinned_scc_hashes() {
        const IP: [u64; 46] = [
            0xfbeb7821cf1949ea,
            0x74576e854979b5d8,
            0x807eee9f0794468d,
            0x77fa5ca94cf8715c,
            0xb753d7eba093dda0,
            0xd3db61a01f5226ad,
            0xbd06caf9ba22ae99,
            0xb3af4ecea6cdb6d6,
            0x17365b012602407a,
            0x77fa695feefb1806,
            0xd2e2eb13deefce49,
            0x42e23eacac7e17f9,
            0xe20eb32c92834d47,
            0x9f59a618c993b188,
            0xbb92c9ff9771ad12,
            0x802a69bdb6e87c4d,
            0x5c4f364abf149cb0,
            0xd9c1e822905e0b19,
            0xd3afcf64d2f0c182,
            0x3f1865bddd6d0f23,
            0x405188a6673cc380,
            0x586da2c6033d8903,
            0x313a2b72178b9f38,
            0x30b56d00fee3d25e,
            0x9a65d9d3780b44d8,
            0xc7e44a8b2f5e7ad2,
            0xfdba49e606c4a4b0,
            0x5d1ad4708d0edd91,
            0x088e779568362fbd,
            0x46857af46798d13b,
            0x270c042378c32a47,
            0xb168d2f27c1862a6,
            0x11bf60d31460864e,
            0x5002c45df6caa4f2,
            0xb358f46a446cc1ac,
            0x5fcbce23f37af702,
            0x74f9ce22cb38a18c,
            0x6d1fe8cbcd168f61,
            0xa6ed8fd0ba353d2b,
            0x39ede2484e400f14,
            0x590cbb66c3a550ed,
            0xa782497b46af7268,
            0xe302f75acca18995,
            0x5a43f3f0144cd0c1,
            0x78c50af2345220b3,
            0xf53835231f99c512,
        ];
        const GENERIC: [u64; 45] = [
            0xc0187fafcaf1c8e6,
            0x7e40159771e83c0b,
            0xf19ab3c65244ec18,
            0x58cc629e783c0b69,
            0x3674f4bf033c9220,
            0x7ded5ac4f3d210b2,
            0x56525e9946ac5687,
            0xf9fec0fc54cf0779,
            0x1c64f876453b25e4,
            0x3c0130b7e2bf8a1a,
            0xbccd50f69a15ffa9,
            0xc3da0f114fbed360,
            0x56a4ba9c16070a93,
            0x78f32df6bfd98ab9,
            0xb91045f85d8180c6,
            0xa7c84a2ffa08bccf,
            0x6d1e7eca8059c073,
            0x7fa7b42c4abda9e0,
            0xa870982d59fedb95,
            0xf196a9cd3548d5cf,
            0x94fa286b1bcb2265,
            0xda91f6ef465cb1e1,
            0x8d85967412ad438b,
            0x29ffc7a1176c82d4,
            0xc06fdddec8354655,
            0xdab4e42cbead6385,
            0x7c9088f48132120b,
            0x207de23cfd3ad9cd,
            0xea82ee34f554c974,
            0xfaaccd25dad14179,
            0x847fab66e9ef7db3,
            0x24fab16c220dba5b,
            0x6d038e135a9c0e21,
            0xa0d21e769771e54e,
            0x9c8f397918079910,
            0x7acc9c3e85589763,
            0x4ed47c25992f2855,
            0xd10299ab282d219b,
            0xfb630c33c496dcb6,
            0xd97f909192089036,
            0xb0975702a1fc5ec3,
            0xad462b9c8a5441e2,
            0x9d1ae698ac5861cd,
            0x5ddd08dd17140cbe,
            0x44c38d0ad7dd8150,
        ];
        const DOUBLE_IP: [u64; 42] = [
            0x5778b322e1557141,
            0x2e9d0735e83d5e77,
            0x646312e11b481d41,
            0xe04750b2470eff2b,
            0x82354f4d198df782,
            0x3a08b99c74e21c33,
            0xa191867fd11fe144,
            0x04b1dd872d96adfb,
            0x96b878abb118f736,
            0x84eb29fd6ce6ea0b,
            0x94b8c66110fbf4ca,
            0x86571469082ccd62,
            0xb111c4a4a86f477d,
            0xf76efd939d3386ea,
            0x19f1762f9438521e,
            0x2cf9e5a7895d77de,
            0x2ad83f875d7fc451,
            0xbbd90c32c1b3b613,
            0x7f70271528b80bb4,
            0x2f25e53f95983f63,
            0xf0757b7343480aa8,
            0x7cb6f3915cef0de7,
            0xcecffcf612bf8574,
            0x8c43407e28da6d4f,
            0x560f4249dfb9bf53,
            0xa760252d5e439abd,
            0xda617ad60680ac98,
            0x059bf9a99ecabcde,
            0x7aff42383590bbde,
            0x4bb116b31d76e7c3,
            0x9d5a462103bbb3b0,
            0x4d17d3ce5e3c6ec1,
            0xdc4b8ddfa0c3d3b1,
            0xa6dc077d65a82ab2,
            0x20cd89167cfb8895,
            0x7fb28576285d8f43,
            0x3d78b906bea0697a,
            0x8c6d7b9fb0a68c98,
            0xdc2147b648abe3ea,
            0x7d7e400794eb4567,
            0x22704648c5b22f22,
            0x7e624a367cf06062,
        ];
        const FIG2: [u64; 4] =
            [0x27dacd3d013d3bbf, 0x1974a6578fd33ede, 0xff38b87e7ad12b3e, 0x5b40c881d4ce3f22];
        const MONOREPO_SMALL: [u64; 25] = [
            0x1415ee62bbf8f26a,
            0xb289dd8c716b601f,
            0xeefea39eeba4c48c,
            0x8909fca665da0d4a,
            0x115700908ca47000,
            0xcd4eb30602a978f4,
            0x1998a7174267f2df,
            0xc338f4e8fa7fc110,
            0xa1a73b03c8bda792,
            0x9ddea04fb8293efe,
            0xc43f740f9e0ecd9b,
            0xf508d82c95262254,
            0xdcb4f99ba6335fe8,
            0xbc87fd70cdaae222,
            0xbd106eac62eb9579,
            0xb61cdafc08600602,
            0x889c4a8384322cbd,
            0x4c76c6456914502a,
            0xec0d9c77490e8021,
            0x7965ca8aef864e1b,
            0xe3c03f5658c32435,
            0xb612fa2e64c59d25,
            0x5f4bcb92d9146b8e,
            0x333eec30cba2bd11,
            0x4e43c745986c2fc8,
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

    /// A panic contained in one SCC's task leaves every SCC that does not
    /// depend on it with the summary bytes of a clean run, at any thread
    /// count. The tasks share scratch buffers through a pool; a panicking
    /// task drops the scratch it holds, so nothing of it reaches a later SCC.
    #[test]
    fn a_panicking_scc_leaves_independent_summaries_unchanged() {
        use crate::{FaultPlan, FaultSite};
        let mut fs = VirtualFs::new();
        for (name, text) in generate_monorepo(MonorepoParams::small()) {
            fs.add(name, text);
        }
        let parsed = safeflow_syntax::parse_preprocessed(safeflow_syntax::preprocess_program_jobs(
            "main.c", &fs, 1,
        ));
        let module = safeflow_ir::lower::lower(&parsed.unit, &mut Diagnostics::new());
        let deps = CallGraph::build(&module).scc_dependencies();
        let n = deps.len();
        // Each entry's key and encoded member summaries, in table order.
        let encoded = |table: &SccTable| -> Vec<(u64, Vec<Vec<u8>>)> {
            let encode = |s: &Summary| {
                let mut bytes = Vec::new();
                s.encode(&mut bytes);
                bytes
            };
            table.iter().map(|(key, sums)| (*key, sums.iter().map(encode).collect())).collect()
        };
        // SCCs that some later SCC calls into: a panic there reaches more
        // than its own task. The first, middle and last of them.
        let called: Vec<usize> =
            (0..n).filter(|&k| deps[k + 1..].iter().any(|d| d.contains(&k))).collect();
        assert!(called.len() >= 3, "the program has a call DAG");
        let faulty = [called[0], called[called.len() / 2], called[called.len() - 1]];
        for jobs in [1, 4] {
            let config = AnalysisConfig::with_engine(crate::Engine::Summary).with_jobs(jobs);
            let clean = encoded(&run_over(&config, &fs, "main.c", &SccTable::new()).1);
            assert_eq!(clean.len(), n, "every SCC has a key of its own, in SCC order");
            for k in faulty {
                // The faulty SCC and every SCC that calls into it, directly
                // or not (dependencies come before their dependents).
                let mut reached = vec![false; n];
                for i in 0..n {
                    reached[i] = i == k || deps[i].iter().any(|&d| reached[d]);
                }
                let armed = config
                    .clone()
                    .with_fault_plan(FaultPlan::panic_at(FaultSite::SccAnalysis, k as u64));
                let (result, table) = run_over(&armed, &fs, "main.c", &SccTable::new());
                assert_eq!(result.report.exit_code(), 3, "the panic degrades the run");
                let expected: Vec<_> = clean
                    .iter()
                    .zip(&reached)
                    .filter(|&(_, &reached)| !reached)
                    .map(|(entry, _)| entry.clone())
                    .collect();
                assert_eq!(encoded(&table), expected, "panic at SCC {k}, jobs {jobs}");
            }
        }
    }

    /// One stable-hash fold of the live SCC table of a summary-engine run over
    /// `main` in `fs`: each entry's key, member count and encoded member
    /// summaries, in table order — the bytes the store's SCC table holds.
    fn live_summary_fold(fs: &VirtualFs, main: &str) -> u64 {
        use std::hash::Hasher;
        let config = AnalysisConfig::with_engine(crate::Engine::Summary);
        let (_, table) = run_over(&config, fs, main, &SccTable::new());
        let mut h = StableHasher::new();
        let mut bytes = Vec::new();
        for (key, summaries) in table.iter() {
            h.write_u64(*key);
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
            ("IP", 0xe17e7d3194d6e210),
            ("Generic Simplex", 0x1333551771b8bad7),
            ("Double IP", 0xf638d625f7228f90),
            ("fig2", 0x43a0beeefba49a3f),
            ("monorepo small", 0xea7e02febdf5d36b),
        ];
        assert_eq!(got, pinned);
    }
}
