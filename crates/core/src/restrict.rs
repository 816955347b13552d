//! Phase 2: enforcement of the shared-memory language restrictions
//! (paper §3.2, checked as described in §3.3):
//!
//! * **P1** — shared memory must not be deallocated before the end of
//!   `main`;
//! * **P2** — the address of a shared-memory pointer must not be taken
//!   (no aliasing shm pointers through memory);
//! * **P3** — no casts of shm pointers to incompatible pointee types or to
//!   integers (exempt inside `shminit` functions and their callees);
//! * **A1/A2** — shared-array indices must be provably in bounds; loop
//!   indices must be affine in induction variables with affine bounds.
//!   Obligations are discharged by the Omega-test solver, standing in for
//!   the paper's use of the Omega library.
//!
//! (§3.3 once says "restrictions P1–P4"; the paper only ever defines
//! P1–P3, so we treat "P4" as a typo for P3.)

use crate::config::{AnalysisConfig, ENTRY};
use crate::regions::RegionMap;
use crate::report::{Degradation, DegradationKind, Restriction, RestrictionViolation};
use crate::shmptr::ShmPointers;
use safeflow_ir::{
    loops::{find_loops, Loop},
    CallGraph, CastKind, Cfg, DomTree, FuncId, Function, InstId, InstKind, Module, TypeKind, Value,
};
use safeflow_solver::{Entailment, LinExpr, SolveStats, SolverLimits, System, Var};
use safeflow_util::fault::FaultSite;
use safeflow_util::metrics::{Class, Metrics};
use safeflow_util::pool::{run_map, PoolStats};
use safeflow_util::Symbol;
use std::collections::{HashMap, HashSet};
use std::time::Instant;

/// Per-function check/solver tallies, merged in definition order after the
/// parallel pass so the metrics totals are independent of `jobs`.
#[derive(Debug, Default)]
struct FnCheckStats {
    /// Shared-array bounds obligations examined (A1/A2 sites).
    bounds_obligations: u64,
    /// Omega entailment queries issued (two per proven obligation).
    solver_calls: u64,
    /// Aggregated solver work counters.
    solve: SolveStats,
}

/// Runs all restriction checks, returning the violations found plus any
/// degradations (panicking or over-budget per-function scans).
///
/// The module-wide facts (shminit reachability, the transitive
/// shm-touching set, phase 1's escaping stores) are computed sequentially;
/// the per-function P1/P2/P3/A1/A2 scans then run concurrently on
/// `config.jobs` worker threads. Results are merged in definition order,
/// so the output is independent of `jobs`.
///
/// `cfgs` holds each function's CFG, indexed by `FuncId` (`None` for
/// prototypes).
///
/// A panic inside one function's scan is contained: that function's
/// checks degrade (recorded as an `InternalError` degradation — no silent
/// pass), every other function completes. Solver obligations share a
/// per-function step pool from `config.budget.solver_steps`; exhaustion
/// leaves the obligation *unproven* (still an A1 violation, conservative)
/// and records a `BudgetExhausted` degradation.
#[allow(clippy::too_many_arguments)]
pub fn check_restrictions(
    module: &Module,
    regions: &RegionMap,
    shm: &ShmPointers,
    callgraph: &CallGraph,
    cfgs: &[Option<Cfg>],
    config: &AnalysisConfig,
    deadline: Option<Instant>,
    metrics: &Metrics,
) -> (Vec<RestrictionViolation>, Vec<Degradation>) {
    let shminit_reachable = shminit_reachable(module, callgraph);
    let touches = shm_touching_functions(module, shm, callgraph);
    let p1_names = (Symbol::intern(ENTRY), DEALLOC_FUNCTIONS.map(Symbol::intern));

    // P2(a): region pointers stored into arbitrary memory (from phase 1).
    let mut out = Vec::new();
    for &(fid, iid) in &shm.escaping_stores {
        let func = module.function(fid);
        out.push(RestrictionViolation {
            restriction: Restriction::P2,
            function: func.name.to_string(),
            message: "shared-memory pointer stored into memory (aliases a shm pointer through a memory location)"
                .to_string(),
            span: func.inst(iid).span,
        });
    }

    let defs: Vec<FuncId> = module.definitions().collect();
    let pool_stats = PoolStats::default();
    let per_fn = run_map(config.jobs, defs.len(), &pool_stats, |i| {
        let fid = defs[i];
        let mut vs = Vec::new();
        let mut budget_notes: Vec<String> = Vec::new();
        let mut fs = FnCheckStats::default();
        if let Some(d) = deadline {
            if Instant::now() >= d {
                budget_notes.push("wall-clock deadline exceeded before restriction checks".into());
                return (vs, budget_notes, fs);
            }
        }
        let cfg = cfgs[fid.0 as usize].as_ref();
        check_p1_in(module, shm, cfg, &touches, fid, p1_names, &mut vs);
        check_p2_in(module, shm, fid, &mut vs);
        check_p3_in(module, shm, &shminit_reachable, fid, &mut vs);
        check_arrays_in(
            module,
            regions,
            shm,
            cfg,
            &shminit_reachable,
            fid,
            config,
            &mut vs,
            &mut budget_notes,
            &mut fs,
        );
        (vs, budget_notes, fs)
    });

    // Merge in definition order (independent of the worker schedule); the
    // tallies are flushed once, so they are too.
    let mut degradations = Vec::new();
    let mut totals = FnCheckStats::default();
    let mut scanned: u64 = 0;
    for (i, r) in per_fn.into_iter().enumerate() {
        let name = module.function(defs[i]).name.to_string();
        match r {
            Ok((vs, notes, fs)) => {
                scanned += 1;
                totals.bounds_obligations += fs.bounds_obligations;
                totals.solver_calls += fs.solver_calls;
                totals.solve.steps += fs.solve.steps;
                totals.solve.eq_eliminations += fs.solve.eq_eliminations;
                totals.solve.fm_eliminations += fs.solve.fm_eliminations;
                totals.solve.early_exits += fs.solve.early_exits;
                out.extend(vs);
                for n in notes {
                    degradations.push(Degradation {
                        kind: DegradationKind::BudgetExhausted,
                        functions: vec![name.clone()],
                        detail: n,
                    });
                }
            }
            Err(p) => degradations.push(Degradation {
                kind: DegradationKind::InternalError,
                functions: vec![name],
                detail: format!("restriction checks panicked: {}", p.message),
            }),
        }
    }
    metrics.add_many(
        Class::Counter,
        &[
            ("restrict.functions_checked", scanned),
            ("restrict.bounds_obligations", totals.bounds_obligations),
            ("restrict.solver_calls", totals.solver_calls),
            ("solver.steps", totals.solve.steps),
            ("solver.eq_eliminations", totals.solve.eq_eliminations),
            ("solver.fm_eliminations", totals.solve.fm_eliminations),
            ("solver.early_exits", totals.solve.early_exits),
        ],
    );
    pool_stats.record(metrics, "pool.restrict");
    (out, degradations)
}

/// Functions exempt from P3: `shminit` functions and everything they call
/// ("applies to the function and any function invoked recursively by it",
/// §3.2.1).
fn shminit_reachable(module: &Module, callgraph: &CallGraph) -> HashSet<FuncId> {
    let mut set = HashSet::new();
    for fid in module.definitions() {
        if module.function(fid).is_shminit() {
            set.extend(callgraph.reachable_from(fid));
        }
    }
    set
}

// --------------------------------------------------------------------- P1

/// Functions that (transitively) touch shared memory — the module-wide
/// input to the per-function P1 scan.
fn shm_touching_functions(
    module: &Module,
    shm: &ShmPointers,
    callgraph: &CallGraph,
) -> HashSet<FuncId> {
    let mut touches: HashSet<FuncId> = HashSet::new();
    for fid in module.definitions() {
        let func = module.function(fid);
        if func.is_shminit() {
            continue;
        }
        let has_access = func.iter_insts().any(|(_, inst)| match &inst.kind {
            InstKind::Load { ptr } | InstKind::Store { ptr, .. } => shm.is_shm_ptr(fid, ptr),
            _ => false,
        });
        if has_access {
            touches.insert(fid);
        }
    }
    // Close over callers: a function touching shm taints its callers.
    let mut changed = true;
    while changed {
        changed = false;
        for fid in module.definitions() {
            if touches.contains(&fid) {
                continue;
            }
            if let Some(callees) = callgraph.callees.get(&fid) {
                if callees.iter().any(|c| touches.contains(c)) {
                    touches.insert(fid);
                    changed = true;
                }
            }
        }
    }
    touches
}

/// The external functions that deallocate shared memory (the System V
/// API the paper's systems use).
const DEALLOC_FUNCTIONS: [&str; 2] = ["shmdt", "shmctl"];

/// P1 in `fid`; `(entry, dealloc)` are [`ENTRY`] and [`DEALLOC_FUNCTIONS`] interned.
fn check_p1_in(
    module: &Module,
    shm: &ShmPointers,
    cfg: Option<&Cfg>,
    touches: &HashSet<FuncId>,
    fid: FuncId,
    (entry, dealloc): (Symbol, [Symbol; 2]),
    out: &mut Vec<RestrictionViolation>,
) {
    let func = module.function(fid);
    let Some(cfg) = cfg else { return };
    for (bid, block) in func.iter_blocks() {
        for (pos, &iid) in block.insts.iter().enumerate() {
            let inst = func.inst(iid);
            let InstKind::Call { callee, .. } = &inst.kind else { continue };
            let Some(name) = module.external_callee_name(callee) else { continue };
            if !dealloc.contains(&name) {
                continue;
            }
            if func.name != entry {
                out.push(RestrictionViolation {
                    restriction: Restriction::P1,
                    function: func.name.to_string(),
                    message: format!(
                        "`{name}` deallocates shared memory outside `{ENTRY}` (shared memory must live until the end of `{ENTRY}`)"
                    ),
                    span: inst.span,
                });
                continue;
            }
            // Inside main: any shm access after the call (same block or
            // reachable block) violates P1.
            let mut bad = false;
            for &later in &block.insts[pos + 1..] {
                if inst_touches_shm(module, shm, fid, func, later, touches) {
                    bad = true;
                }
            }
            if !bad {
                let mut seen = HashSet::new();
                let mut work = cfg.succs_of(bid).to_vec();
                while let Some(b) = work.pop() {
                    if !seen.insert(b) {
                        continue;
                    }
                    for &i2 in &func.block(b).insts {
                        if inst_touches_shm(module, shm, fid, func, i2, touches) {
                            bad = true;
                        }
                    }
                    work.extend(cfg.succs_of(b).iter().copied());
                }
            }
            if bad {
                out.push(RestrictionViolation {
                    restriction: Restriction::P1,
                    function: func.name.to_string(),
                    message: format!("shared memory may be accessed after `{name}` deallocates it"),
                    span: inst.span,
                });
            }
        }
    }
}

fn inst_touches_shm(
    module: &Module,
    shm: &ShmPointers,
    fid: FuncId,
    func: &Function,
    iid: InstId,
    touching_fns: &HashSet<FuncId>,
) -> bool {
    match &func.inst(iid).kind {
        InstKind::Load { ptr } | InstKind::Store { ptr, .. } => shm.is_shm_ptr(fid, ptr),
        InstKind::Call { callee, .. } => match callee {
            safeflow_ir::Callee::Local(t) if module.function(*t).is_definition => {
                touching_fns.contains(t)
            }
            _ => false,
        },
        _ => false,
    }
}

// --------------------------------------------------------------------- P2

/// P2(b): taking the address of a variable that holds a shm pointer — a
/// `Value::Global(g)` (the global's address) or an alloca holding shm
/// facts used anywhere except as the direct pointer of a load/store.
/// (P2(a), the escaping stores collected in phase 1, is emitted by
/// [`check_restrictions`] before the parallel per-function pass.)
fn check_p2_in(
    module: &Module,
    shm: &ShmPointers,
    fid: FuncId,
    out: &mut Vec<RestrictionViolation>,
) {
    let func = module.function(fid);
    if func.is_shminit() {
        return;
    }
    // Allocas holding shm pointers.
    let mut shm_slots: HashSet<InstId> = HashSet::new();
    for (iid, inst) in func.iter_insts() {
        if matches!(inst.kind, InstKind::Alloca { .. })
            && !shm.regions_of_ref(fid, &Value::Inst(iid)).is_empty()
        {
            shm_slots.insert(iid);
        }
    }
    for (_iid, inst) in func.iter_insts() {
        let bad_use = |v: &Value, exclude_ptr_position: bool| -> bool {
            if exclude_ptr_position {
                return false;
            }
            match v {
                Value::Global(g) => !shm.global_regions(*g).is_empty(),
                Value::Inst(id) => shm_slots.contains(id),
                _ => false,
            }
        };
        let mut offending = false;
        match &inst.kind {
            InstKind::Load { .. } => {}
            InstKind::Store { ptr: _, value } => {
                // Using the address *as the stored value* is the
                // violation; using it as the store target is fine.
                if bad_use(value, false) {
                    offending = true;
                }
            }
            other => other.for_each_operand(|op| offending |= bad_use(op, false)),
        }
        if offending {
            out.push(RestrictionViolation {
                restriction: Restriction::P2,
                function: func.name.to_string(),
                message: "address of a shared-memory pointer variable is taken".to_string(),
                span: inst.span,
            });
        }
    }
}

// --------------------------------------------------------------------- P3

fn check_p3_in(
    module: &Module,
    shm: &ShmPointers,
    exempt: &HashSet<FuncId>,
    fid: FuncId,
    out: &mut Vec<RestrictionViolation>,
) {
    if exempt.contains(&fid) {
        return;
    }
    let func = module.function(fid);
    for (_, inst) in func.iter_insts() {
        let InstKind::Cast { kind, value } = &inst.kind else { continue };
        if shm.regions_of_ref(fid, value).is_empty() {
            continue;
        }
        match kind {
            CastKind::PtrToInt => {
                out.push(RestrictionViolation {
                    restriction: Restriction::P3,
                    function: func.name.to_string(),
                    message: "shared-memory pointer cast to an integer".to_string(),
                    span: inst.span,
                });
            }
            CastKind::PtrToPtr => {
                let from = module.value_type(func, value);
                let (Some(fp), Some(tp)) =
                    (module.types.pointee(from), module.types.pointee(inst.ty))
                else {
                    continue;
                };
                let is_byte = |t| matches!(module.types.kind(t), TypeKind::Int { bits: 8, .. });
                if !module.types.compatible_pointees(fp, tp) && !is_byte(fp) && !is_byte(tp) {
                    out.push(RestrictionViolation {
                        restriction: Restriction::P3,
                        function: func.name.to_string(),
                        message: format!(
                            "shared-memory pointer cast between incompatible types `{}` and `{}`",
                            module.types.display(from),
                            module.types.display(inst.ty)
                        ),
                        span: inst.span,
                    });
                }
            }
            _ => {}
        }
    }
}

// ----------------------------------------------------------------- A1/A2

/// Affine form of an index expression over loop induction variables.
struct AffineCtx<'a> {
    func: &'a Function,
    loops: &'a [Loop],
    /// Solver variable per IV φ.
    iv_vars: HashMap<InstId, Var>,
    /// Solver variable per non-IV symbolic leaf (bounds like `n`).
    sym_vars: HashMap<ValueFingerprint, Var>,
    sys: System,
}

/// Hashable stand-in for `Value` leaves (params and instruction results).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum ValueFingerprint {
    Inst(InstId),
    Param(u32),
}

fn fingerprint(v: &Value) -> Option<ValueFingerprint> {
    match v {
        Value::Inst(i) => Some(ValueFingerprint::Inst(*i)),
        Value::Param(i) => Some(ValueFingerprint::Param(*i)),
        _ => None,
    }
}

impl<'a> AffineCtx<'a> {
    fn new(func: &'a Function, loops: &'a [Loop]) -> AffineCtx<'a> {
        AffineCtx {
            func,
            loops,
            iv_vars: HashMap::new(),
            sym_vars: HashMap::new(),
            sys: System::new(),
        }
    }

    /// Declares the constraints of every loop enclosing `at`.
    fn add_loop_constraints(&mut self, at: safeflow_ir::BlockId) {
        let loops: Vec<&Loop> = self.loops.iter().filter(|l| l.body.contains(&at)).collect();
        for l in loops {
            for iv in &l.ivs {
                let v = self.iv_var(iv.phi);
                // Bound by the initial value.
                if let Some(init) = iv.init.as_const_int() {
                    if iv.step > 0 {
                        self.sys.add_ge(LinExpr::var(v), LinExpr::constant(init));
                    } else if iv.step < 0 {
                        self.sys.add_le(LinExpr::var(v), LinExpr::constant(init));
                    }
                } else if let Some(fp) = fingerprint(&iv.init) {
                    let sv = self.sym_var(fp);
                    if iv.step > 0 {
                        self.sys.add_ge(LinExpr::var(v), LinExpr::var(sv));
                    } else if iv.step < 0 {
                        self.sys.add_le(LinExpr::var(v), LinExpr::var(sv));
                    }
                }
            }
            // Header exit test constrains values seen inside the body.
            if let Some(test) = &l.exit_test {
                if let Some(lhs) = self.as_affine_shallow(&test.lhs) {
                    if let Some(rhs) = self.as_affine_shallow(&test.rhs) {
                        use safeflow_ir::CmpOp::*;
                        match test.op {
                            Lt => self.sys.add_lt(lhs, rhs),
                            Le => self.sys.add_le(lhs, rhs),
                            Gt => self.sys.add_gt(lhs, rhs),
                            Ge => self.sys.add_ge(lhs, rhs),
                            Eq => self.sys.add_eq(lhs, rhs),
                            Ne => {} // disequality not representable; skip
                        }
                    }
                }
            }
        }
    }

    fn iv_var(&mut self, phi: InstId) -> Var {
        if let Some(&v) = self.iv_vars.get(&phi) {
            return v;
        }
        let v = self.sys.new_var(format!("iv{}", phi.0));
        self.iv_vars.insert(phi, v);
        v
    }

    fn sym_var(&mut self, fp: ValueFingerprint) -> Var {
        if let Some(&v) = self.sym_vars.get(&fp) {
            return v;
        }
        let v = self.sys.new_var(format!("{fp:?}"));
        self.sym_vars.insert(fp, v);
        v
    }

    /// Affine view of a value as a leaf: constant, IV φ, or a fresh
    /// symbolic variable. Does not recurse into arithmetic.
    fn as_affine_shallow(&mut self, v: &Value) -> Option<LinExpr> {
        if let Some(c) = v.as_const_int() {
            return Some(LinExpr::constant(c));
        }
        if let Value::Inst(id) = v {
            if self.loops.iter().any(|l| l.ivs.iter().any(|iv| iv.phi == *id)) {
                return Some(LinExpr::var(self.iv_var(*id)));
            }
        }
        fingerprint(v).map(|fp| LinExpr::var(self.sym_var(fp)))
    }

    /// Full affine view: recurses through +, -, ×const, and casts. `None`
    /// means the expression is not affine in IVs and constants (an A2
    /// violation when used as a shared-array index).
    fn as_affine(&mut self, v: &Value, depth: usize) -> Option<LinExpr> {
        if depth > 16 {
            return None;
        }
        if let Some(c) = v.as_const_int() {
            return Some(LinExpr::constant(c));
        }
        if let Value::Inst(id) = v {
            if self.loops.iter().any(|l| l.ivs.iter().any(|iv| iv.phi == *id)) {
                return Some(LinExpr::var(self.iv_var(*id)));
            }
            match &self.func.inst(*id).kind {
                InstKind::Bin { op, lhs, rhs } => {
                    use safeflow_ir::BinOp::*;
                    match op {
                        Add => {
                            let a = self.as_affine(lhs, depth + 1)?;
                            let b = self.as_affine(rhs, depth + 1)?;
                            return Some(a + b);
                        }
                        Sub => {
                            let a = self.as_affine(lhs, depth + 1)?;
                            let b = self.as_affine(rhs, depth + 1)?;
                            return Some(a - b);
                        }
                        Mul => {
                            if let Some(c) = rhs.as_const_int() {
                                let a = self.as_affine(lhs, depth + 1)?;
                                return Some(a * c);
                            }
                            if let Some(c) = lhs.as_const_int() {
                                let b = self.as_affine(rhs, depth + 1)?;
                                return Some(b * c);
                            }
                            return None;
                        }
                        _ => return None,
                    }
                }
                InstKind::Cast { kind: CastKind::IntToInt, value } => {
                    return self.as_affine(value, depth + 1);
                }
                _ => {}
            }
            // A non-IV symbolic leaf (e.g. a parameter-derived value):
            // allowed by A2(c) only if it cannot change the accessed
            // location — we keep it symbolic, which makes the bounds
            // obligation unprovable unless otherwise constrained.
            return Some(LinExpr::var(self.sym_var(ValueFingerprint::Inst(*id))));
        }
        if let Value::Param(i) = v {
            return Some(LinExpr::var(self.sym_var(ValueFingerprint::Param(*i))));
        }
        None
    }
}

#[allow(clippy::too_many_arguments)]
fn check_arrays_in(
    module: &Module,
    regions: &RegionMap,
    shm: &ShmPointers,
    cfg: Option<&Cfg>,
    exempt: &HashSet<FuncId>,
    fid: FuncId,
    config: &AnalysisConfig,
    out: &mut Vec<RestrictionViolation>,
    budget_notes: &mut Vec<String>,
    fs: &mut FnCheckStats,
) {
    if exempt.contains(&fid) {
        return;
    }
    let Some(cfg) = cfg else { return };
    let func = module.function(fid);
    // Per-function Omega step pool, shared by every bounds obligation in
    // the function. The solver fault site keys on the function id, so an
    // injected fault lands on the same function at any thread count (a
    // Panic is contained by the pool as that function's `TaskPanic`; a
    // BudgetExhaustion empties the step pool).
    let mut limits = SolverLimits::default();
    if let Some(steps) = config.budget.solver_steps {
        limits.max_steps = steps;
    }
    if let Some(plan) = &config.fault_plan {
        if plan.trip(FaultSite::Solver, fid.0 as u64) {
            limits.max_steps = 0;
        }
    }
    let mut exhausted = false;
    // Built on the first bounds obligation: most functions index no shared
    // array and need no dominators.
    let mut loops: Option<Vec<Loop>> = None;

    for (iid, inst) in func.iter_insts() {
        let InstKind::ElemAddr { base, index } = &inst.kind else { continue };
        let facts = shm.regions_of_ref(fid, base);
        if facts.is_empty() {
            continue;
        }
        // The decay step `elemaddr p[0]` is trivially safe.
        if index.as_const_int() == Some(0) {
            continue;
        }
        // Determine the bound: an array field inside the region, or the
        // region itself as an array.
        let (bound, base_offset) = match array_bound(module, func, base, regions, facts) {
            Some(b) => b,
            None => continue,
        };

        let at = func.block_of(iid).unwrap_or(func.entry());
        let loops = loops.get_or_insert_with(|| find_loops(func, cfg, &DomTree::build(cfg)));
        let mut ctx = AffineCtx::new(func, loops);
        ctx.add_loop_constraints(at);
        fs.bounds_obligations += 1;
        let Some(idx) = ctx.as_affine(index, 0) else {
            out.push(RestrictionViolation {
                restriction: Restriction::A2,
                function: func.name.to_string(),
                message:
                    "shared-array index is not an affine expression of loop induction variables"
                        .to_string(),
                span: inst.span,
            });
            continue;
        };
        let full = idx + LinExpr::constant(base_offset);
        fs.solver_calls += 2;
        let lower = ctx.sys.implies_ge_stats(full.clone(), LinExpr::zero(), &limits, &mut fs.solve);
        let upper =
            ctx.sys.implies_lt_stats(full, LinExpr::constant(bound as i64), &limits, &mut fs.solve);
        let lower_ok = lower == Entailment::Proved;
        let upper_ok = upper == Entailment::Proved;
        let hit_budget =
            lower == Entailment::BudgetExhausted || upper == Entailment::BudgetExhausted;
        if hit_budget {
            exhausted = true;
        }
        if !lower_ok || !upper_ok {
            out.push(RestrictionViolation {
                restriction: Restriction::A1,
                function: func.name.to_string(),
                message: format!(
                    "cannot prove shared-array index within bounds [0, {bound}){}",
                    if hit_budget {
                        " (solver step budget exhausted)"
                    } else if !lower_ok {
                        " (lower bound unproven)"
                    } else {
                        " (upper bound unproven)"
                    }
                ),
                span: inst.span,
            });
        }
    }
    if exhausted {
        budget_notes.push(format!(
            "Omega solver step budget ({} step(s)) exhausted while checking shared-array bounds",
            limits.max_steps
        ));
    }
}

/// The element bound for an indexed shared pointer: `(length, base offset)`.
fn array_bound(
    module: &Module,
    func: &Function,
    base: &Value,
    regions: &RegionMap,
    facts: &std::collections::BTreeSet<crate::shmptr::RegionPtr>,
) -> Option<(u64, i64)> {
    // Case 1: base derives from an array-typed field (d->v decayed).
    if let Value::Inst(id) = base {
        if let InstKind::ElemAddr { base: inner, index } = &func.inst(*id).kind {
            if index.as_const_int() == Some(0) {
                if let Value::Inst(fid2) = inner {
                    if let InstKind::FieldAddr { struct_id, field, .. } = &func.inst(*fid2).kind {
                        let fty = module.types.layout(*struct_id).fields[*field as usize].ty;
                        if let TypeKind::Array(_, n) = module.types.kind(fty) {
                            return Some((n, 0));
                        }
                    }
                }
            }
        }
    }
    // Case 2: the region itself is the array.
    let mut tightest: Option<(u64, i64)> = None;
    for f in facts {
        let r = regions.region(f.region);
        let off = f.offset.unwrap_or(0);
        let cand = (r.len, off);
        tightest = Some(match tightest {
            None => cand,
            Some(prev) => {
                if cand.0 < prev.0 {
                    cand
                } else {
                    prev
                }
            }
        });
    }
    tightest
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regions::extract_regions;
    use crate::shmptr::identify_shm_pointers;
    use safeflow_ir::build_module;
    use safeflow_syntax::diag::Diagnostics;
    use safeflow_syntax::parse_source;

    fn violations(src: &str) -> Vec<RestrictionViolation> {
        let pr = parse_source("t.c", src);
        assert!(!pr.diags.has_errors(), "{:?}", pr.diags);
        let mut diags = Diagnostics::new();
        let m = build_module(&pr.unit, &mut diags);
        assert!(!diags.has_errors(), "{diags:?}");
        let regions = extract_regions(&m, &mut diags);
        let shm = identify_shm_pointers(&m, &regions);
        let cg = CallGraph::build(&m);
        let config = AnalysisConfig::default();
        let metrics = Metrics::new();
        let cfgs: Vec<Option<Cfg>> =
            m.functions.iter().map(|f| (!f.blocks.is_empty()).then(|| Cfg::build(f))).collect();
        let (vs, degradations) =
            check_restrictions(&m, &regions, &shm, &cg, &cfgs, &config, None, &metrics);
        assert!(degradations.is_empty(), "{degradations:?}");
        vs
    }

    const PRELUDE: &str = r#"
        typedef struct { float control; float arr[4]; int n; } SHMData;
        SHMData *feedback;
        SHMData *noncoreCtrl;
        void *shmat(int shmid, void *addr, int flags);
        int shmdt(void *addr);
        void initComm(void)
        /** SafeFlow Annotation shminit */
        {
            feedback = (SHMData *) shmat(0, 0, 0);
            noncoreCtrl = feedback + 1;
            /** SafeFlow Annotation
                assume(shmvar(feedback, sizeof(SHMData)))
                assume(shmvar(noncoreCtrl, sizeof(SHMData)))
                assume(noncore(noncoreCtrl))
            */
        }
    "#;

    fn has(vs: &[RestrictionViolation], r: Restriction) -> bool {
        vs.iter().any(|v| v.restriction == r)
    }

    #[test]
    fn clean_program_has_no_violations() {
        let vs = violations(&format!(
            r#"{PRELUDE}
            float ok(void) {{
                int i;
                float s = 0.0;
                for (i = 0; i < 4; i++) s += noncoreCtrl->arr[i];
                return s;
            }}
            int main() {{ ok(); return 0; }}
            "#
        ));
        assert!(vs.is_empty(), "{vs:?}");
    }

    #[test]
    fn p1_dealloc_outside_main() {
        let vs = violations(&format!(
            "{PRELUDE}\nvoid teardown(void) {{ shmdt(feedback); }}\nint main() {{ teardown(); return 0; }}"
        ));
        assert!(has(&vs, Restriction::P1), "{vs:?}");
    }

    #[test]
    fn p1_access_after_dealloc_in_main() {
        let vs = violations(&format!(
            r#"{PRELUDE}
            int main() {{
                float x;
                shmdt(feedback);
                x = feedback->control;
                return 0;
            }}
            "#
        ));
        assert!(has(&vs, Restriction::P1), "{vs:?}");
    }

    #[test]
    fn p1_dealloc_at_end_of_main_ok() {
        let vs = violations(&format!(
            r#"{PRELUDE}
            int main() {{
                float x = feedback->control;
                shmdt(feedback);
                return 0;
            }}
            "#
        ));
        assert!(!has(&vs, Restriction::P1), "{vs:?}");
    }

    #[test]
    fn p2_store_into_struct_field() {
        let vs = violations(&format!(
            r#"{PRELUDE}
            typedef struct {{ SHMData *stash; }} Holder;
            Holder h;
            void bad(void) {{ h.stash = noncoreCtrl; }}
            "#
        ));
        assert!(has(&vs, Restriction::P2), "{vs:?}");
    }

    #[test]
    fn p2_address_of_region_global() {
        let vs = violations(&format!(
            "{PRELUDE}\nvoid taker(SHMData **pp);\nvoid bad(void) {{ taker(&feedback); }}"
        ));
        assert!(has(&vs, Restriction::P2), "{vs:?}");
    }

    #[test]
    fn p3_incompatible_cast() {
        let vs = violations(&format!(
            r#"{PRELUDE}
            typedef struct {{ double d; }} Other;
            void bad(void) {{ Other *o = (Other *) noncoreCtrl; }}
            "#
        ));
        assert!(has(&vs, Restriction::P3), "{vs:?}");
    }

    #[test]
    fn p3_cast_to_int() {
        let vs = violations(&format!("{PRELUDE}\nlong bad(void) {{ return (long) noncoreCtrl; }}"));
        assert!(has(&vs, Restriction::P3), "{vs:?}");
    }

    #[test]
    fn p3_exempt_in_shminit() {
        // The casts inside initComm (void* → SHMData*) must not fire.
        let vs = violations(&format!("{PRELUDE}\nint main() {{ return 0; }}"));
        assert!(!has(&vs, Restriction::P3), "{vs:?}");
    }

    #[test]
    fn a1_constant_out_of_bounds() {
        let vs =
            violations(&format!("{PRELUDE}\nfloat bad(void) {{ return noncoreCtrl->arr[7]; }}"));
        assert!(has(&vs, Restriction::A1), "{vs:?}");
    }

    #[test]
    fn a1_constant_in_bounds_ok() {
        let vs =
            violations(&format!("{PRELUDE}\nfloat ok(void) {{ return noncoreCtrl->arr[3]; }}"));
        assert!(!has(&vs, Restriction::A1), "{vs:?}");
    }

    #[test]
    fn a1_loop_bound_proven() {
        let vs = violations(&format!(
            r#"{PRELUDE}
            float ok(void) {{
                float s = 0.0;
                int i;
                for (i = 0; i < 4; i++) s += noncoreCtrl->arr[i];
                return s;
            }}
            "#
        ));
        assert!(!has(&vs, Restriction::A1), "{vs:?}");
        assert!(!has(&vs, Restriction::A2), "{vs:?}");
    }

    #[test]
    fn a1_loop_bound_too_large() {
        let vs = violations(&format!(
            r#"{PRELUDE}
            float bad(void) {{
                float s = 0.0;
                int i;
                for (i = 0; i < 8; i++) s += noncoreCtrl->arr[i];
                return s;
            }}
            "#
        ));
        assert!(has(&vs, Restriction::A1), "{vs:?}");
    }

    #[test]
    fn a1_symbolic_bound_unprovable() {
        let vs = violations(&format!(
            r#"{PRELUDE}
            float bad(int n) {{
                float s = 0.0;
                int i;
                for (i = 0; i < n; i++) s += noncoreCtrl->arr[i];
                return s;
            }}
            "#
        ));
        assert!(has(&vs, Restriction::A1), "{vs:?}");
    }

    #[test]
    fn a2_nonaffine_index() {
        let vs = violations(&format!(
            r#"{PRELUDE}
            float bad(void) {{
                float s = 0.0;
                int i;
                for (i = 1; i < 4; i = i * 2) s += noncoreCtrl->arr[i];
                return s;
            }}
            "#
        ));
        // i*2 update makes i a non-IV; indexing by it is non-affine... but
        // the *index* is the phi itself which becomes a symbolic leaf, so
        // this manifests as an unprovable A1 rather than A2.
        assert!(has(&vs, Restriction::A1) || has(&vs, Restriction::A2), "{vs:?}");
    }

    #[test]
    fn a1_affine_transformed_index_proven() {
        let vs = violations(&format!(
            r#"{PRELUDE}
            float ok(void) {{
                float s = 0.0;
                int i;
                for (i = 0; i < 2; i++) s += noncoreCtrl->arr[2 * i + 1];
                return s;
            }}
            "#
        ));
        assert!(!has(&vs, Restriction::A1), "{vs:?}");
        assert!(!has(&vs, Restriction::A2), "{vs:?}");
    }

    #[test]
    fn region_indexed_as_array() {
        let src = r#"
            float *samples;
            void *shmat(int shmid, void *addr, int flags);
            void init(void)
            /** SafeFlow Annotation shminit */
            {
                samples = (float *) shmat(0, 0, 0);
                /** SafeFlow Annotation
                    assume(shmvar(samples, 64))
                    assume(noncore(samples))
                */
            }
            float ok(void) {
                float s = 0.0;
                int i;
                for (i = 0; i < 16; i++) s += samples[i];
                return s;
            }
            float bad(void) { return samples[16]; }
        "#;
        let vs = violations(src);
        assert_eq!(vs.iter().filter(|v| v.restriction == Restriction::A1).count(), 1, "{vs:?}");
        assert!(vs.iter().all(|v| v.function == "bad"), "{vs:?}");
    }
}
