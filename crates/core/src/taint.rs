//! Phase 3: unmonitored-access warnings and the interprocedural,
//! context-sensitive value-flow analysis of critical data (paper §3.3,
//! third phase) — generalized over a label-lattice policy.
//!
//! * Reads of non-core shared memory outside an `assume(core(...))` /
//!   `assume(declassify(...))` context produce **warnings** — exact, per
//!   the paper ("without any false positives or false negatives").
//! * Labels propagate along SSA edges, through memory objects (via the
//!   points-to analysis), across calls (context-sensitively: the
//!   declassification scope and parameter labels form the context, so a
//!   callee shared by a monitor and a non-monitor is analyzed separately
//!   for each — the paper's "analyzed multiple times for different call
//!   sequences", with its exponential worst case), and through **control
//!   dependence** (branches over labeled values taint what they control
//!   — tracked separately as *implicit* flow, the paper's false-positive
//!   source, reported as `ControlOnly`).
//! * `assert(safe(x))` anchors and implicitly-critical call arguments
//!   (e.g. `kill`'s pid) produce **errors** when a label above the sink's
//!   clearance reaches them, each carrying a value-flow path for manual
//!   triage.
//!
//! Under the default two-point policy every label is `untrusted` (⊤) and
//! every clearance is `trusted` (⊥), which collapses [`TaintVal`] to the
//! paper's three-point `Clean < Control < Data` lattice byte-for-byte.

use crate::config::{AnalysisConfig, CallNames, ENTRY};
use crate::policy::LabelTable;
use crate::regions::{RegionId, RegionMap};
use crate::report::{Degradation, DegradationKind, ErrorDependency, Findings, FlowNode, Warning};
use crate::scope::{self, Scope};
use crate::shmptr::ShmPointers;
use safeflow_ir::{
    BlockId, Callee, Cfg, ControlDeps, FuncId, Function, InstId, InstKind, Module, PostDomTree,
    Terminator, Value,
};
use safeflow_points_to::{ObjId, PointsTo};
use safeflow_util::metrics::{Class, Metrics};
use safeflow_util::Symbol;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;
use std::time::Instant;

/// A point of the label lattice with explicit and implicit flow tracked
/// separately: `explicit` is the join of labels that flowed into the
/// value through data edges, `implicit` the join of labels that only
/// steered control deciding it. Normalized so `implicit` never repeats
/// an atom already in `explicit` ("data beats control"); under the
/// two-point default policy the reachable values are exactly
/// `Clean = (0,0) < Control = (0,⊤) < Data = (⊤,0)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TaintVal {
    explicit: u64,
    implicit: u64,
}

impl TaintVal {
    /// ⊥ — no label influence at all.
    pub fn bot() -> TaintVal {
        TaintVal::default()
    }

    /// A normalized value from explicit and implicit label masks.
    pub fn new(explicit: u64, implicit: u64) -> TaintVal {
        TaintVal { explicit, implicit: implicit & !explicit }
    }

    /// Data-dependence on the given label mask.
    pub fn explicit_at(mask: u64) -> TaintVal {
        TaintVal { explicit: mask, implicit: 0 }
    }

    /// Control-dependence-only on the given label mask.
    pub fn implicit_at(mask: u64) -> TaintVal {
        TaintVal { explicit: 0, implicit: mask }
    }

    /// The explicit (data-flow) label mask.
    pub fn explicit(&self) -> u64 {
        self.explicit
    }

    /// The implicit (control-flow) label mask.
    pub fn implicit(&self) -> u64 {
        self.implicit
    }

    /// `true` iff ⊥.
    pub fn is_bot(&self) -> bool {
        self.explicit == 0 && self.implicit == 0
    }

    /// Pointwise join (bitwise OR, then re-normalize).
    pub fn join(self, other: TaintVal) -> TaintVal {
        TaintVal::new(self.explicit | other.explicit, self.implicit | other.implicit)
    }

    /// This value demoted to pure implicit flow: the label of a value
    /// used as a branch condition, as seen by what the branch controls.
    pub fn as_implicit(self) -> TaintVal {
        TaintVal { explicit: 0, implicit: self.explicit | self.implicit }
    }
}

/// A taint fact with provenance.
#[derive(Debug, Clone)]
pub struct Taint {
    /// Label-lattice value.
    pub val: TaintVal,
    /// Value-flow provenance (present when `val` is not ⊥).
    pub origin: Option<Arc<FlowNode>>,
}

impl Taint {
    fn clean() -> Taint {
        Taint { val: TaintVal::bot(), origin: None }
    }

    fn at(val: TaintVal, origin: Option<Arc<FlowNode>>) -> Taint {
        Taint { val, origin }
    }

    /// Joins `other` in, replacing the origin only when `other` strictly
    /// dominates the current value (preserving the historical
    /// worst-origin-wins provenance of the two-point engine).
    fn join(&mut self, other: &Taint) -> bool {
        self.join_with(other.val, || other.origin.clone())
    }

    /// [`Taint::join`] of `val`, building its origin only when it replaces
    /// the current one.
    fn join_with(&mut self, val: TaintVal, origin: impl FnOnce() -> Option<Arc<FlowNode>>) -> bool {
        let joined = self.val.join(val);
        if val > self.val {
            self.origin = origin();
        }
        if joined != self.val {
            self.val = joined;
            true
        } else {
            false
        }
    }
}

/// Analysis context: what makes two analyses of the same function differ.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct Ctx {
    /// Declassification scope, per §3.1 generalized: region → the label
    /// mask reads of it carry inside this scope (`0` = assumed core).
    declass: Scope,
    /// Label value of each parameter (masks only; origins are kept
    /// separately to keep the memo key small and the fixpoint monotone).
    params: Vec<TaintVal>,
}

/// Result of analyzing one `(function, context)` pair.
#[derive(Debug, Default)]
struct Outcome {
    ret: Option<Taint>,
    findings: Findings,
}

/// Output of the phase-3 engine.
#[derive(Debug, Default)]
pub struct TaintResults {
    /// Unmonitored non-core reads (deduplicated by site and region).
    pub warnings: Vec<Warning>,
    /// Critical-data dependency errors (deduplicated by site).
    pub errors: Vec<ErrorDependency>,
    /// Analysis notes (ineffective annotations etc.).
    pub notes: Vec<String>,
    /// Number of distinct `(function, context)` pairs analyzed — the
    /// context-sensitivity cost the paper's §3.3 discusses.
    pub contexts_analyzed: usize,
    /// Scopes analyzed in degraded (conservative) mode — empty on a clean
    /// run.
    pub degradations: Vec<Degradation>,
}

/// Runs the context-sensitive phase-3 engine under the compiled policy
/// `table`. `cfgs` holds each function's CFG, indexed by `FuncId` (`None`
/// for prototypes).
///
/// When `config.budget` sets explicit bounds (fixpoint rounds, function
/// size, or the wall-clock `deadline`), scopes exceeding them degrade
/// conservatively: their non-core reads all become warnings, their sinks
/// all become `Data` errors, their stores taint the written objects, and
/// the result carries a [`Degradation`] naming them.
#[allow(clippy::too_many_arguments)]
pub fn analyze_taint(
    module: &Module,
    regions: &RegionMap,
    shm: &ShmPointers,
    pt: &PointsTo,
    cfgs: &[Option<Cfg>],
    config: &AnalysisConfig,
    table: &LabelTable,
    deadline: Option<Instant>,
    metrics: &Metrics,
) -> TaintResults {
    let (own_scopes, notes) = scope::own_scopes(module, regions, shm, table);
    let mut eng = Engine {
        module,
        regions,
        shm,
        pt,
        cfgs,
        config,
        table,
        memo: module.functions.iter().map(|_| BTreeMap::new()).collect(),
        in_progress: BTreeSet::new(),
        obj_taint: BTreeMap::new(),
        noncore_sockets: scope::find_noncore_sockets(module, regions),
        own_scopes,
        calls: CallNames::new(config, table),
        notes,
        control_deps: HashMap::new(),
        pdom: PostDomTree::default(),
        obj_dirty: false,
        deadline,
        degraded: BTreeMap::new(),
        stat_function_rounds: 0,
        stat_insts_visited: 0,
    };

    // Iterate to a module-level fixpoint: memory-object taints feed back
    // into function analyses.
    // Per-function fixpoint signature: (func, ret explicit mask, ret
    // implicit mask, warning count, error count).
    type FnSig = (u32, u64, u64, usize, usize);
    let mut rounds = 0;
    let mut prev_sig: Option<Vec<FnSig>> = None;
    let entry = module.function_by_name(Symbol::intern(ENTRY));
    loop {
        rounds += 1;
        let before: Vec<TaintVal> = eng.obj_taint.values().map(|t| t.val).collect();
        eng.memo.iter_mut().for_each(BTreeMap::clear);

        // Roots: entry function plus every defined function not reachable
        // from it (so warnings cover the whole component).
        if let Some(e) = entry {
            if module.function(e).is_definition {
                let ctx = eng.base_ctx(e, &Scope::new(), &[]);
                eng.analyze(e, ctx);
            }
        }
        for fid in module.definitions() {
            if module.function(fid).is_shminit() {
                continue;
            }
            if eng.memo[fid.0 as usize].is_empty() {
                let nparams = module.function(fid).params.len();
                let ctx = eng.base_ctx(fid, &Scope::new(), &vec![TaintVal::bot(); nparams]);
                eng.analyze(fid, ctx);
            }
        }

        let after: Vec<TaintVal> = eng.obj_taint.values().map(|t| t.val).collect();
        let mut sig: Vec<FnSig> = eng
            .outcomes()
            .map(|(f, o)| {
                let ret = o.ret.as_ref().map(|t| t.val).unwrap_or_default();
                let (warnings, errors) = o.findings.len();
                (f, ret.explicit(), ret.implicit(), warnings, errors)
            })
            .collect();
        sig.sort_unstable();
        let stable = before == after && prev_sig.as_ref() == Some(&sig);
        prev_sig = Some(sig);
        if stable || rounds > 8 {
            break;
        }
    }

    // Every context's findings, merged in `(function, context)` order, so
    // the flow a site keeps does not depend on how the memo was filled.
    let mut findings = Findings::default();
    for (_, outcome) in eng.outcomes() {
        findings.merge(&outcome.findings);
    }
    eng.notes.sort();
    eng.notes.dedup();
    let degradations = eng
        .degraded
        .iter()
        .map(|(name, (kind, detail))| Degradation {
            kind: *kind,
            functions: vec![name.to_string()],
            detail: detail.clone(),
        })
        .collect();
    let contexts_analyzed: usize = eng.memo.iter().map(BTreeMap::len).sum();
    metrics.add_many(
        Class::Counter,
        &[
            ("taint.module_rounds", rounds as u64),
            ("taint.contexts", contexts_analyzed as u64),
            ("taint.function_rounds", eng.stat_function_rounds),
            ("taint.vfg_nodes_visited", eng.stat_insts_visited),
        ],
    );
    let (warnings, errors) = findings.into_parts(table, regions);
    TaintResults { warnings, errors, notes: eng.notes, contexts_analyzed, degradations }
}

struct Engine<'a> {
    module: &'a Module,
    regions: &'a RegionMap,
    shm: &'a ShmPointers,
    pt: &'a PointsTo,
    /// Each function's CFG, indexed by `FuncId` (`None` for prototypes).
    cfgs: &'a [Option<Cfg>],
    config: &'a AnalysisConfig,
    table: &'a LabelTable,
    /// Each function's analyzed contexts, indexed by `FuncId`.
    memo: Vec<BTreeMap<Ctx, Outcome>>,
    in_progress: BTreeSet<FuncId>,
    /// Module-wide memory-object taint (flow-insensitive, like the paper's
    /// DSA-backed memory reasoning).
    obj_taint: BTreeMap<ObjId, Taint>,
    noncore_sockets: BTreeSet<safeflow_ir::GlobalId>,
    /// Each function's own assume/declassify scope.
    own_scopes: HashMap<FuncId, Scope>,
    /// The configured call names, interned.
    calls: CallNames,
    notes: Vec<String>,
    /// Control dependences of the functions analyzed so far.
    control_deps: HashMap<FuncId, ControlDeps>,
    /// Post-dominator buffers, reused for each function's control
    /// dependences.
    pdom: PostDomTree,
    /// Set when a memory-object taint was raised; forces another local
    /// round so earlier loads observe it.
    obj_dirty: bool,
    /// Wall-clock deadline for the run, from `Budget::deadline_ms`.
    deadline: Option<Instant>,
    /// Functions whose analysis degraded, with why (keyed by name so the
    /// record survives the memo clears of the module-level fixpoint).
    degraded: BTreeMap<&'static str, (DegradationKind, String)>,
    /// Local fixpoint rounds run, across every `(function, context)` and
    /// every module-level round (the engine is single-threaded, so this is
    /// deterministic).
    stat_function_rounds: u64,
    /// Value-flow-graph nodes visited: one per instruction per local round.
    stat_insts_visited: u64,
}

impl<'a> Engine<'a> {
    /// Every analyzed `(function, context)` outcome, in `(FuncId, Ctx)`
    /// order.
    fn outcomes(&self) -> impl Iterator<Item = (u32, &Outcome)> {
        (0u32..).zip(&self.memo).flat_map(|(f, ctxs)| ctxs.values().map(move |o| (f, o)))
    }

    /// The flow-path source description for a read of `region` at `mask`.
    fn read_source_desc(&self, region: RegionId, func_name: Symbol, mask: u64) -> String {
        let region_name = self.regions.region(region).name;
        if self.table.is_default() {
            format!("unmonitored read of non-core region `{region_name}` in `{func_name}`")
        } else {
            format!(
                "read of non-core region `{region_name}` (label `{}`) in `{func_name}`",
                self.table.name_of(mask)
            )
        }
    }

    /// The context a function runs in, given the caller's declassification
    /// scope and argument labels: the inherited scope narrowed by the
    /// function's own `assume(core(...))` / `assume(declassify(...))`
    /// annotations (which apply recursively to callees, §3.1).
    fn base_ctx(&self, fid: FuncId, inherited: &Scope, params: &[TaintVal]) -> Ctx {
        Ctx { declass: scope::meet(inherited, self.own_scopes.get(&fid)), params: params.to_vec() }
    }

    fn analyze(&mut self, fid: FuncId, ctx: Ctx) -> Taint {
        if let Some(out) = self.memo[fid.0 as usize].get(&ctx) {
            return out.ret.clone().unwrap_or_else(Taint::clean);
        }
        if self.in_progress.contains(&fid) {
            // Recursion: seed with Clean; the module-level fixpoint loop
            // re-runs analyses until stable.
            return Taint::clean();
        }
        // Context-explosion guard (per function): beyond the cap, merge
        // into a single worst-case context — no inherited assumptions and
        // fully tainted parameters. Sound (only adds taint), loses
        // precision.
        if self.memo[fid.0 as usize].len() >= self.config.max_contexts {
            let nparams = self.module.function(fid).params.len();
            let top = TaintVal::explicit_at(self.table.top());
            let merged = self.base_ctx(fid, &Scope::new(), &vec![top; nparams]);
            if merged != ctx {
                return self.analyze(fid, merged);
            }
        }
        self.in_progress.insert(fid);
        let outcome = self.run_function(fid, &ctx);
        self.in_progress.remove(&fid);
        let ret = outcome.ret.clone().unwrap_or_else(Taint::clean);
        self.memo[fid.0 as usize].insert(ctx, outcome);
        ret
    }

    fn run_function(&mut self, fid: FuncId, ctx: &Ctx) -> Outcome {
        let func = self.module.function(fid);
        let mut outcome = Outcome::default();
        if func.blocks.is_empty() {
            return outcome;
        }
        // Explicit budgets: scopes beyond them are not analyzed in depth —
        // they degrade to a conservative outcome instead (loud, never a
        // silent pass).
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                return self.conservative_outcome(
                    fid,
                    ctx,
                    "wall-clock deadline exceeded".to_string(),
                );
            }
        }
        if let Some(cap) = self.config.budget.max_function_insts {
            if func.insts.len() > cap {
                return self.conservative_outcome(
                    fid,
                    ctx,
                    format!(
                        "function exceeds the {cap}-instruction budget ({} instructions)",
                        func.insts.len()
                    ),
                );
            }
        }
        let mut taints: HashMap<InstId, Taint> = HashMap::new();
        let mut block_ctl: HashMap<BlockId, Taint> = HashMap::new();
        let cfg = self.cfgs[fid.0 as usize].as_ref().expect("function has blocks");
        let (walk, one_pass) = cfg.body_walk(func);
        let pdom = &mut self.pdom;
        self.control_deps.entry(fid).or_insert_with(|| {
            let mut cd = ControlDeps::default();
            cd.rebuild(cfg, pdom);
            cd
        });

        // Walk the body to a local fixpoint (φ-loops, control taint over
        // back edges, memory-object taint raised by a later store). The
        // built-in bound of 16 rounds keeps its historical silent behavior;
        // an explicit `fixpoint_rounds` budget degrades the function when
        // the cap stops the iteration early.
        let rounds_cap =
            self.config.budget.fixpoint_rounds.map(|r| r.max(1) as usize).unwrap_or(16);
        let mut converged = false;
        for _round in 0..rounds_cap {
            let mut changed = false;
            self.obj_dirty = false;
            self.stat_function_rounds += 1;
            for bid in walk.clone() {
                let block = func.block(bid);
                let ctl_here = block_ctl.get(&bid).cloned().unwrap_or_else(Taint::clean);
                self.stat_insts_visited += block.insts.len() as u64;
                for &iid in &block.insts {
                    let inst = func.inst(iid);
                    let mut t = Taint::clean();
                    match &inst.kind {
                        InstKind::Load { ptr } => {
                            let reads = self.table.region_reads(
                                self.regions,
                                self.shm,
                                func,
                                fid,
                                ptr,
                                &ctx.declass,
                            );
                            let monitored = reads.is_none();
                            for read in reads.into_iter().flatten() {
                                outcome.findings.read(func.name, read.region, inst.span, read.mask);
                                t.join_with(TaintVal::explicit_at(read.mask), || {
                                    let what =
                                        self.read_source_desc(read.region, func.name, read.mask);
                                    Some(FlowNode::source(what, inst.span))
                                });
                            }
                            // Pointer influence, plus memory-object taint
                            // unless the load is monitored.
                            t.join(&value_taint(ptr, &taints, ctx));
                            if !monitored {
                                for o in self.pt.points_to_ref(fid, ptr).iter() {
                                    if let Some(ot) = self.obj_taint.get(&o) {
                                        t.join(ot);
                                    }
                                    let base = self.pt.base_of(o);
                                    if base != o {
                                        if let Some(ot) = self.obj_taint.get(&base) {
                                            t.join(ot);
                                        }
                                    }
                                }
                            }
                        }
                        InstKind::Store { ptr, value } => {
                            let mut vt = value_taint(value, &taints, ctx);
                            vt.join(&ctl_here);
                            if !vt.val.is_bot() {
                                for o in self.pt.points_to_ref(fid, ptr).iter() {
                                    let e = self.obj_taint.entry(o).or_insert_with(Taint::clean);
                                    if e.join_with(vt.val, || {
                                        vt.origin.clone().map(|orig| {
                                            FlowNode::step(
                                                format!(
                                                    "stored to {}",
                                                    self.pt.describe(self.module, o)
                                                ),
                                                inst.span,
                                                orig,
                                            )
                                        })
                                    }) {
                                        self.obj_dirty = true;
                                    }
                                }
                            }
                        }
                        kind @ (InstKind::Bin { .. }
                        | InstKind::Cmp { .. }
                        | InstKind::Cast { .. }
                        | InstKind::FieldAddr { .. }
                        | InstKind::ElemAddr { .. }) => {
                            kind.for_each_operand(|v| {
                                t.join(&value_taint(v, &taints, ctx));
                            });
                        }
                        InstKind::Phi { incoming } => {
                            // Data from the incoming values, plus implicit
                            // flow: which predecessor ran (and therefore
                            // which value was selected) is decided by the
                            // branches controlling the predecessors.
                            for (pred, v) in incoming {
                                t.join(&value_taint(v, &taints, ctx));
                                if let Some(ctl) = block_ctl.get(pred) {
                                    t.join(ctl);
                                }
                            }
                        }
                        InstKind::Call { callee, args } => {
                            t = self.handle_call(
                                fid,
                                func,
                                iid,
                                callee,
                                args,
                                &taints,
                                ctx,
                                &ctl_here,
                                &mut outcome,
                            );
                        }
                        InstKind::AssertSafe { var, value } => {
                            let mut vt = value_taint(value, &taints, ctx);
                            vt.join(&ctl_here);
                            // An assert anchor has clearance ⊥.
                            outcome.findings.reach(func.name, inst.span, *var, vt.val, 0, || {
                                vt.origin.map(|orig| {
                                    FlowNode::step(
                                        format!("assert(safe({var})) reached"),
                                        inst.span,
                                        orig,
                                    )
                                })
                            });
                        }
                        InstKind::Alloca { .. } => {}
                    }
                    if !t.val.is_bot() {
                        let e = taints.entry(iid).or_insert_with(Taint::clean);
                        if e.join(&t) {
                            changed = true;
                        }
                    }
                }

                // A branch over a tainted value taints the blocks it decides.
                let cond = match &block.terminator {
                    Terminator::CondBr { cond, .. } => cond,
                    Terminator::Switch { value, .. } => value,
                    _ => continue,
                };
                let mut t = value_taint(cond, &taints, ctx);
                t.join(&ctl_here);
                if t.val.is_bot() {
                    continue;
                }
                let branch_span = match cond {
                    Value::Inst(id) => func.inst(*id).span,
                    _ => func.span,
                };
                let ctl = Taint {
                    val: t.val.as_implicit(),
                    origin: Some(FlowNode::step(
                        format!("branch in `{}` decided by unsafe value", func.name),
                        branch_span,
                        t.origin.unwrap_or_else(|| {
                            FlowNode::source("unsafe branch condition", func.span)
                        }),
                    )),
                };
                for &dep in self.control_deps[&fid].controlled_by(bid) {
                    changed |= block_ctl.entry(dep).or_insert_with(Taint::clean).join(&ctl);
                }
            }

            // Return taint.
            let mut ret = Taint::clean();
            for (bid, block) in func.iter_blocks() {
                if let Terminator::Ret(Some(v)) = &block.terminator {
                    ret.join(&value_taint(v, &taints, ctx));
                    if let Some(ctl) = block_ctl.get(&bid) {
                        ret.join(ctl);
                    }
                }
            }
            match &mut outcome.ret {
                Some(prev) => {
                    if prev.join(&ret) {
                        changed = true;
                    }
                }
                None => {
                    outcome.ret = Some(ret);
                    changed = true;
                }
            }

            if (one_pass || !changed) && !self.obj_dirty {
                converged = true;
                break;
            }
            // Findings are recollected each round; clear to avoid dupes.
            if _round + 1 < rounds_cap {
                let keep_ret = outcome.ret.clone();
                outcome = Outcome { ret: keep_ret, ..Outcome::default() };
            }
        }
        if !converged && self.config.budget.fixpoint_rounds.is_some() {
            return self.conservative_outcome(
                fid,
                ctx,
                format!("taint fixpoint did not converge within {rounds_cap} round(s)"),
            );
        }
        outcome
    }

    /// The degraded result for a function whose analysis ran out of
    /// budget: every unmonitored non-core read is a warning, every sink is
    /// a `Data` error, every store (and configured receive buffer) taints
    /// its memory objects, and the return value is ⊤-tainted — a strict
    /// superset of anything the full analysis could report.
    fn conservative_outcome(&mut self, fid: FuncId, ctx: &Ctx, reason: String) -> Outcome {
        let func = self.module.function(fid);
        let name = func.name;
        self.degraded.entry(name.as_str()).or_insert((DegradationKind::BudgetExhausted, reason));
        let origin = FlowNode::source(
            format!("analysis of `{}` degraded; conservatively assumed unsafe", func.name),
            func.span,
        );
        let top = Taint::at(TaintVal::explicit_at(self.table.top()), Some(origin));
        let mut outcome = Outcome { ret: Some(top.clone()), ..Outcome::default() };
        for (_, inst) in func.iter_insts() {
            match &inst.kind {
                InstKind::Load { ptr } => {
                    let reads = self.table.region_reads(
                        self.regions,
                        self.shm,
                        func,
                        fid,
                        ptr,
                        &ctx.declass,
                    );
                    for read in reads.into_iter().flatten() {
                        outcome.findings.read(name, read.region, inst.span, read.mask);
                    }
                }
                InstKind::Store { ptr, .. } => {
                    self.obj_dirty |= taint_pointees(&mut self.obj_taint, self.pt, fid, ptr, &top);
                }
                InstKind::AssertSafe { var, .. } => {
                    let flow = || top.origin.clone();
                    outcome.findings.reach(name, inst.span, *var, top.val, 0, flow);
                }
                InstKind::Call { callee, args } => {
                    // Local callees are still analyzed — in the worst-case
                    // context (no inherited assumptions, tainted
                    // parameters), so findings that a precise caller
                    // context would have produced cannot silently vanish.
                    if let Callee::Local(target) = callee {
                        if self.module.function(*target).is_definition {
                            let n = self.module.function(*target).params.len();
                            let worst = self.base_ctx(*target, &Scope::new(), &vec![top.val; n]);
                            self.analyze(*target, worst);
                        }
                    }
                    if let Some(callee_name) = self.module.external_callee_name(callee) {
                        for (_, c) in self.calls.critical_args(callee_name, args) {
                            outcome.findings.reach(
                                name,
                                inst.span,
                                c.sink,
                                top.val,
                                c.clearance,
                                || top.origin.clone(),
                            );
                        }
                        for (buf, _) in self.calls.recv_bufs(callee_name, args) {
                            self.obj_dirty |=
                                taint_pointees(&mut self.obj_taint, self.pt, fid, buf, &top);
                        }
                    }
                }
                _ => {}
            }
        }
        outcome
    }

    #[allow(clippy::too_many_arguments)]
    fn handle_call(
        &mut self,
        fid: FuncId,
        func: &Function,
        iid: InstId,
        callee: &Callee,
        args: &[Value],
        taints: &HashMap<InstId, Taint>,
        ctx: &Ctx,
        ctl_here: &Taint,
        outcome: &mut Outcome,
    ) -> Taint {
        let inst = func.inst(iid);
        // External (or prototype-only) call?
        if let Some(name) = self.module.external_callee_name(callee) {
            // Implicit critical arguments (kill's pid), checked against
            // the call's clearance label (`trusted` by default).
            for (arg, c) in self.calls.critical_args(name, args) {
                let mut at = value_taint(arg, taints, ctx);
                at.join(ctl_here);
                outcome.findings.reach(func.name, inst.span, c.sink, at.val, c.clearance, || {
                    at.origin.map(|orig| {
                        let what = format!("passed as critical argument {} of `{name}`", c.arg);
                        FlowNode::step(what, inst.span, orig)
                    })
                });
            }
            // recv-style calls over non-core sockets taint the buffer
            // (§3.4.3 extension).
            for (buf, sock) in self.calls.recv_bufs(name, args) {
                if scope::socket_is_noncore(func, sock, &self.noncore_sockets) {
                    let origin = FlowNode::source(
                        format!("`{name}` received non-core data in `{}`", func.name),
                        inst.span,
                    );
                    let t = Taint::at(TaintVal::explicit_at(self.table.top()), Some(origin));
                    self.obj_dirty |= taint_pointees(&mut self.obj_taint, self.pt, fid, buf, &t);
                }
            }
            // Unknown external functions: result considered clean (the
            // trusted-library model of §3.4.3).
            return Taint::clean();
        }
        // Local call: context-sensitive descent.
        let Callee::Local(target) = callee else { unreachable!() };
        let mut param_vals = Vec::with_capacity(args.len());
        let mut worst_arg = Taint::clean();
        for arg in args {
            let mut at = value_taint(arg, taints, ctx);
            at.join(ctl_here);
            if at.val > worst_arg.val {
                worst_arg = at.clone();
            }
            param_vals.push(at.val);
        }
        let callee_ctx = self.base_ctx(*target, &ctx.declass, &param_vals);
        let ret = self.analyze(*target, callee_ctx);
        let mut t = ret;
        // Returned taint with no better provenance inherits the worst
        // argument's origin for path reconstruction.
        if !t.val.is_bot() && t.origin.is_none() {
            t.origin = worst_arg.origin.clone();
        }
        if !t.val.is_bot() {
            t.origin = Some(match t.origin {
                Some(orig) => FlowNode::step(
                    format!("returned from `{}`", self.module.function(*target).name),
                    inst.span,
                    orig,
                ),
                None => FlowNode::source(
                    format!("unsafe value returned from `{}`", self.module.function(*target).name),
                    inst.span,
                ),
            });
        }
        t.join(ctl_here);
        t
    }
}

/// Joins `t` into every memory object `ptr` may point to in `fid`; `true`
/// when one of them rose.
fn taint_pointees(
    obj_taint: &mut BTreeMap<ObjId, Taint>,
    pt: &PointsTo,
    fid: FuncId,
    ptr: &Value,
    t: &Taint,
) -> bool {
    let mut rose = false;
    for o in pt.points_to_ref(fid, ptr).iter() {
        rose |= obj_taint.entry(o).or_insert_with(Taint::clean).join(t);
    }
    rose
}

/// Taint of an operand: parameter taint comes from the context, SSA values
/// from the local map, constants are clean.
fn value_taint(v: &Value, taints: &HashMap<InstId, Taint>, ctx: &Ctx) -> Taint {
    match v {
        Value::Inst(id) => taints.get(id).cloned().unwrap_or_else(Taint::clean),
        Value::Param(i) => {
            let val = ctx.params.get(*i as usize).copied().unwrap_or_default();
            Taint {
                val,
                origin: if val.is_bot() {
                    None
                } else {
                    Some(FlowNode::source(
                        format!("tainted argument #{i}"),
                        safeflow_syntax::span::Span::dummy(),
                    ))
                },
            }
        }
        _ => Taint::clean(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AnalysisResult, Analyzer, Engine};

    /// A non-core shared region `reg` with four fields.
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

    fn analyze(engine: Engine, body: &str) -> AnalysisResult {
        Analyzer::new(crate::AnalysisConfig::with_engine(engine))
            .analyze_source("t.c", &format!("{SHM_PRELUDE}{body}"))
            .expect("analyzes")
    }

    /// The context-sensitive engine's counter `key`.
    fn counter(result: &AnalysisResult, key: &str) -> u64 {
        result.metrics.counters[key]
    }

    /// The errors of a report, flows left out.
    fn error_keys(result: &AnalysisResult) -> Vec<String> {
        let errors = &result.report.errors;
        errors.iter().map(|e| format!("{} in {}: {:?}", e.critical, e.function, e.kind)).collect()
    }

    /// An `if` nested in a then-arm: the lowering numbers the outer merge
    /// block before the nested arms, so a walk in index order meets the
    /// assert before the branch that taints `r`. In reverse postorder every
    /// body here is settled by its first pass, so each context takes one
    /// pass per module round.
    #[test]
    fn a_loop_free_body_is_walked_once_per_context() {
        let result = analyze(
            Engine::ContextSensitive,
            r#"
            int step(int x) {
                int r = 0;
                if (x) {
                    int u = reg->b;
                    if (u > 0) {
                        r = 1;
                    }
                }
                /** SafeFlow Annotation assert(safe(r)) */
                return r;
            }
            int main() { init(); return step(1); }
            "#,
        );
        let contexts = counter(&result, "taint.contexts");
        let module_rounds = counter(&result, "taint.module_rounds");
        assert_eq!(counter(&result, "taint.function_rounds"), contexts * module_rounds);
        assert_eq!(error_keys(&result), ["r in step: ControlOnly"]);
    }

    /// A loop that carries a region read into `out` only over its back
    /// edge: the first pass cannot see it, so the body is walked again until
    /// nothing changes, and the error stands, as in the summary engine.
    #[test]
    fn a_body_with_a_loop_iterates_to_its_fixpoint() {
        let body = r#"
            int carry(int n) {
                int prev = 0;
                int out = 0;
                int i;
                for (i = 0; i < n; i++) {
                    out = prev;
                    prev = reg->a;
                }
                /** SafeFlow Annotation assert(safe(out)) */
                return out;
            }
            int main() { init(); return carry(4); }
            "#;
        let result = analyze(Engine::ContextSensitive, body);
        assert_eq!(error_keys(&result), ["out in carry: Data"]);
        assert_eq!(error_keys(&result), error_keys(&analyze(Engine::Summary, body)));
        let contexts = counter(&result, "taint.contexts");
        let module_rounds = counter(&result, "taint.module_rounds");
        assert!(counter(&result, "taint.function_rounds") > contexts * module_rounds);
    }

    #[test]
    fn taintval_collapses_to_the_two_point_lattice() {
        let clean = TaintVal::bot();
        let control = TaintVal::implicit_at(1);
        let data = TaintVal::explicit_at(1);
        assert!(clean < control && control < data);
        assert_eq!((clean.explicit(), clean.implicit()), (0, 0));
        assert_eq!((control.explicit(), control.implicit()), (0, 1));
        assert_eq!((data.explicit(), data.implicit()), (1, 0));
        // data beats control: joining normalizes the implicit mask away.
        assert_eq!(control.join(data), data);
        assert_eq!(data.join(control), data);
        assert_eq!(clean.join(control), control);
    }

    #[test]
    fn taintval_join_is_pointwise_over_labels() {
        let a = TaintVal::explicit_at(0b010);
        let b = TaintVal::explicit_at(0b100);
        let j = a.join(b);
        assert_eq!(j.explicit(), 0b110);
        assert_eq!(j.implicit(), 0);
        let c = TaintVal::implicit_at(0b010);
        // implicit atoms already explicit are normalized away.
        assert_eq!(j.join(c), j);
        let d = TaintVal::implicit_at(0b001);
        let jd = j.join(d);
        assert_eq!(jd.explicit(), 0b110);
        assert_eq!(jd.implicit(), 0b001);
        assert_eq!(jd.as_implicit(), TaintVal::implicit_at(0b111));
    }

    #[test]
    fn taint_join_keeps_worst_origin() {
        let mut a = Taint::at(
            TaintVal::implicit_at(1),
            Some(FlowNode::source("ctl", safeflow_syntax::span::Span::dummy())),
        );
        let b = Taint::at(
            TaintVal::explicit_at(1),
            Some(FlowNode::source("data", safeflow_syntax::span::Span::dummy())),
        );
        assert!(a.join(&b));
        assert_eq!(a.val, TaintVal::explicit_at(1));
        assert_eq!(a.origin.as_ref().unwrap().what, "data");
        // Joining something smaller changes nothing.
        let c = Taint::at(TaintVal::implicit_at(1), None);
        assert!(!a.join(&c));
        assert_eq!(a.origin.as_ref().unwrap().what, "data");
    }
}
