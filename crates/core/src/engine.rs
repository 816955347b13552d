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
use safeflow_ir::{CallGraph, Callee, FuncId, GlobalId, InstKind, Module, Terminator, Type, Value};
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
pub(crate) fn hash_summary_config(h: &mut StableHasher, config: &AnalysisConfig) {
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
    let mut h = StableHasher::new();
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

fn hash_type(h: &mut StableHasher, ty: &Type) {
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

fn hash_value(h: &mut StableHasher, v: &Value) {
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

fn hash_inst_kind(h: &mut StableHasher, kind: &InstKind) {
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

fn hash_terminator(h: &mut StableHasher, term: &Terminator) {
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

fn hash_annotation(h: &mut StableHasher, ann: &Annotation) {
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

fn hash_ann_expr(h: &mut StableHasher, e: &AnnExpr) {
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
        /// Sets operand `n` of instruction `i` to `v`.
        fn op(f: &mut Function, i: usize, n: usize, v: Value) {
            let mut at = 0;
            f.insts[i].kind.for_each_operand_mut(|o| {
                if at == n {
                    *o = v.clone();
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
            ("param -> inst operand", |f| op(f, 1, 0, Value::Inst(InstId(0)))),
            ("param -> global operand", |f| op(f, 1, 0, Value::Global(GlobalId(0)))),
            ("param index", |f| op(f, 1, 0, Value::Param(1))),
            ("inst id", |f| op(f, 2, 0, Value::Inst(InstId(3)))),
            ("integer constant", |f| op(f, 2, 1, Value::i32(6))),
            ("integer constant width", |f| op(f, 2, 1, Value::ConstInt(5, Type::int64()))),
            ("integer constant sign", |f| op(f, 2, 1, Value::ConstInt(5, Type::Int { bits: 32, signed: false }))),
            ("integer -> null constant", |f| op(f, 2, 1, Value::ConstNull(Type::int32()))),
            ("field struct", |f| if let InstKind::FieldAddr { struct_id, .. } = k(f, 3) { *struct_id = StructId(1) }),
            ("field index", |f| if let InstKind::FieldAddr { field, .. } = k(f, 3) { *field = 2 }),
            ("field base", |f| op(f, 3, 0, Value::Inst(InstId(0)))),
            ("element base", |f| op(f, 4, 0, Value::Param(0))),
            ("element index", |f| op(f, 4, 1, Value::ConstInt(3, Type::int64()))),
            ("binary operator", |f| if let InstKind::Bin { op, .. } = k(f, 5) { *op = BinOp::Sub }),
            ("binary lhs", |f| op(f, 5, 0, Value::Inst(InstId(2)))),
            ("float constant bits", |f| op(f, 5, 1, Value::ConstFloat(2.5, Type::f64()))),
            ("float constant width", |f| op(f, 5, 1, Value::ConstFloat(1.5, Type::f32()))),
            ("operands swapped", |f| if let InstKind::Bin { lhs, rhs, .. } = k(f, 5) { std::mem::swap(lhs, rhs) }),
            ("bin -> cmp", |f| if let InstKind::Bin { lhs, rhs, .. } = k(f, 5).clone() { *k(f, 5) = InstKind::Cmp { op: CmpOp::Eq, lhs, rhs } }),
            ("compare operator", |f| if let InstKind::Cmp { op, .. } = k(f, 6) { *op = CmpOp::Le }),
            ("null pointer type", |f| op(f, 6, 1, Value::ConstNull(Type::int8().ptr_to()))),
            ("cast kind", |f| if let InstKind::Cast { kind, .. } = k(f, 7) { *kind = CastKind::IntToInt }),
            ("global id", |f| op(f, 7, 0, Value::Global(GlobalId(1)))),
            ("local callee id", |f| if let InstKind::Call { callee, .. } = k(f, 8) { *callee = Callee::Local(FuncId(1)) }),
            ("local -> external callee", |f| if let InstKind::Call { callee, .. } = k(f, 8) { *callee = Callee::External("f".into()) }),
            ("call argument dropped", |f| if let InstKind::Call { args, .. } = k(f, 8) { args.pop(); }),
            ("call arguments reordered", |f| if let InstKind::Call { args, .. } = k(f, 8) { args.reverse() }),
            ("asserted name", |f| if let InstKind::AssertSafe { var, .. } = k(f, 9) { *var = "y".into() }),
            ("asserted value", |f| op(f, 9, 0, Value::Inst(InstId(1)))),
            ("external callee name", |f| if let InstKind::Call { callee: Callee::External(n), .. } = k(f, 10) { n.push_str("pg") }),
            ("phi incoming block", |f| if let InstKind::Phi { incoming } = k(f, 11) { incoming[0].0 = BlockId(0) }),
            ("phi incoming value", |f| op(f, 11, 1, Value::i32(1))),
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
            op(&mut f, 5, 1, Value::ConstFloat(c, Type::f64()));
            bare_sig(&f)
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
            0xac67d3779eb43752,
            0x83750c0238ed9603,
            0xe9e3fc8f7dfbea87,
            0x6187537b786e1b91,
            0x10cecb2f99b7471d,
            0x6cc8a5a6ff404c3a,
            0x0618f6ab2dd2f43c,
            0x22c95832f7bf275f,
            0xba79bf44ee64d44a,
            0x55b9f991aa44f545,
            0x9be33f2b159e0103,
            0x6b8c3c1e60a34690,
            0x657ab2e5bc23566e,
            0x52541383acb31b3e,
            0xe1f5146d3d92f3a7,
            0xf17a88ceb33b888f,
            0x8302e99b0be9997e,
            0x103b32670178f005,
            0x88b0fc8b5bcda211,
            0x7a7ba8c908d7b1b4,
            0x457ebc637244e192,
            0xae8d122cafac6e69,
            0xa76a23580cd46987,
            0xf91d4cb801465107,
            0x2c91b7e8ae52eed0,
            0xf6fcbe7ec1a38cb7,
            0xa2508865ccaa4583,
            0x4ab89d2cb820ddea,
            0xef2dbb98edbd4002,
            0x1d6b2cb90ec27ad8,
            0xa3759247ac264779,
            0xa93bcc3c56463e3f,
            0xc8ca52dbf0d43784,
            0x657b502c05b043dd,
            0xaa068f05a4e75456,
            0x1573ad684bb1fb51,
            0x75fb546b7b754145,
            0x2e8ffe521f1acd19,
            0x141d6f8a57a09b1f,
            0x21fc37ac3eb26d8b,
            0xce78fd2ade6be8ec,
            0x006209c1f94cd5ef,
            0x7bbe7d88d9a18c90,
            0x3f3d3e7329d7cf8c,
            0x8e82ed1aa10d708a,
            0xaeb8276e7f71e4c5,
        ];
        const GENERIC: [u64; 45] = [
            0x2ef94c809628de55,
            0xfa04710491567ab3,
            0x5fbbcfa4a19bce46,
            0x0a278d5ae069bcc1,
            0x7770bb3f9d8e9f74,
            0x21129293e1f28de3,
            0x6f8d6aea5a43c43a,
            0x6cd89ddb33ac35ea,
            0x301181903627e54c,
            0x6bb0d3b8b5ba8eea,
            0xa36f5906b66c88c5,
            0xb55939d1361dca93,
            0x87ed3b80ffa0e0da,
            0x489615e84527f5f9,
            0x9930110326879dd6,
            0x6bd04c4795f7aab8,
            0x8d6510a9e82a36cf,
            0xe7b6b7626d307fcb,
            0x3c93d7fefa2ca3dc,
            0x4bbdf4814e3ae063,
            0x0aeae380ab3e7c60,
            0x7cfdba6e6f19e79b,
            0x81d8866aff657601,
            0x661dfaaff57d0f79,
            0xc44b8a9e6e50af0f,
            0x263474b6028c1d9a,
            0x6ba4a9a7821f4410,
            0x9021c2a04264c860,
            0xe897e89c72217a90,
            0x675a5afc820846a2,
            0x0b84c80dfd1d5d39,
            0xd2bd95313e9bfe13,
            0xb9cfc48d8676249a,
            0x7c5fd586155fe053,
            0x6f7629497f407bb6,
            0x3754dbc2abcf805d,
            0xfee342e42f36186b,
            0x38e1e6102ed00c9c,
            0xeacbb66720161128,
            0x92a04104e68ecca7,
            0x21259dbaac2cf44d,
            0xe16344d3bcd47e20,
            0xbbe8e8e4447ff0b5,
            0xa05dd05c564054dd,
            0x33e73b5677ac620e,
        ];
        const DOUBLE_IP: [u64; 42] = [
            0xc6fc7051e1b4f873,
            0x3c3743b639865e1d,
            0xc61d2f767d541caf,
            0x5610ffe6b34accb4,
            0x1692ce1ce2d61857,
            0x5f00ecf41d67cdeb,
            0x739ce24f8a2554df,
            0x67b3d9f882ffdcbc,
            0xcc52ca0095606444,
            0xf2b61e0b1386d64f,
            0x980fcd52bca19787,
            0x7130f850442dddb1,
            0x221d9a59ebcd979c,
            0xa4423e32cac7b33d,
            0xce12f4579f9566d9,
            0x9c1b3d48620abec3,
            0x1db9de5fcaa81896,
            0xc531f9896a907e46,
            0xf5dd7c86ca39481e,
            0x37755c87c7e79614,
            0x0257ed709d448a23,
            0x9cd45c52490e2ec2,
            0x1fdd3e29b1b3a0d7,
            0x6284630a091ce6a2,
            0x027d0fb10eb400a8,
            0x52058da478761867,
            0x0c7ded32cf235ca3,
            0x3a48a8178798b2c8,
            0xc49a3c4c8293074b,
            0x106db12126034966,
            0xdb0ebe556e16d6c6,
            0x92a2fd5cdbdf1716,
            0x41e53ae99ecfe519,
            0xb7915b06a099782f,
            0xa4978fe2a3922054,
            0x7c1a539ad476045e,
            0xd48da86b1f8f86bf,
            0x06d2607a2dd94a42,
            0x050c7c6dd5fcbab7,
            0x186a9ef526f4f20f,
            0xc0e50afc90312e97,
            0xbd1a8b2c8fd6283e,
        ];
        const FIG2: [u64; 4] =
            [0x964da053ef005fa5, 0xf3775e436edd0234, 0x9b74442bd280dfd1, 0x04e17053e19a11e7];
        const MONOREPO_SMALL: [u64; 25] = [
            0x19680aee74848abe,
            0x3299bbf7a0a3f34b,
            0x019cbce92d0a409f,
            0xa83bf0e9bb7550e1,
            0x6ad1a8602d5f60aa,
            0x429e65b543ca7050,
            0x643580e9ffef2ee3,
            0x1f6d982161682c6f,
            0x2268ad3eae2b0abb,
            0x1b3080d974f9a858,
            0xb212349366972910,
            0xc49cceca42d36ab5,
            0x0466cf4dae66f3e8,
            0x791c999dcd66a81e,
            0x57cddee81593413f,
            0x5c40ab5a4f80faab,
            0x245575a480709adb,
            0xb5f17e6254f5705c,
            0x6b6ca225f90545f6,
            0x9d05aedbebd8b303,
            0x5dd3ba17e76be130,
            0x7d3fce7c7767675d,
            0x4d15ae852c4db10a,
            0x314e5fe3dbd2d79b,
            0x563a87cdef17229b,
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
            ("IP", 0x2a9958a52c57db4b),
            ("Generic Simplex", 0xf49d0957bfd0420f),
            ("Double IP", 0x91a6e199ba490dfc),
            ("fig2", 0xb4996c34fda191e7),
            ("monorepo small", 0xbc2b6a8cc0d555b6),
        ];
        assert_eq!(got, pinned);
    }
}
