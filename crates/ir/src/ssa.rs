//! SSA construction (mem2reg): promotes address-never-taken scalar `Alloca`
//! slots to φ-joined SSA values.
//!
//! Lowering spills every C local to an `Alloca`; this pass gives the value
//! flow analysis (paper §3.3, phase 3) direct def-use edges for scalars
//! while leaving address-taken and aggregate locals in memory, where the
//! points-to analysis handles them.
//!
//! Standard algorithm: iterated dominance frontiers for φ placement
//! (Cytron et al.), then a renaming walk over the dominator tree.

use crate::cfg::Cfg;
use crate::dom::DomTree;
use crate::module::*;
use crate::types::Type;
use std::collections::{BTreeMap, BTreeSet, HashSet};

/// Promotes eligible allocas in every defined function of `module`.
///
/// Returns the total number of promoted slots.
pub fn promote_module(module: &mut Module) -> usize {
    let ids: Vec<FuncId> = module.definitions().collect();
    let mut total = 0;
    for id in ids {
        let func = module.function_mut(id);
        total += promote_to_ssa(func);
    }
    total
}

/// Promotes eligible allocas in `func` to SSA values. Returns how many
/// slots were promoted.
///
/// An alloca is eligible when its type is scalar and its address is used
/// *only* as the pointer operand of loads and stores — exactly the slots
/// whose address never escapes.
pub fn promote_to_ssa(func: &mut Function) -> usize {
    if func.blocks.is_empty() {
        return 0;
    }
    let mut cfg = Cfg::build(func);
    clear_unreachable_blocks(func, &mut cfg);

    let promotable = find_promotable(func);
    let promoted = promotable.iter().filter(|&&p| p).count();
    if promoted == 0 {
        return 0;
    }
    let dom = DomTree::build(&cfg);

    // ---- φ placement ----------------------------------------------------
    // def_blocks[a] = blocks storing to alloca a. Ordered maps/sets
    // throughout: φ ids are allocated (and φs prepended to blocks) in
    // iteration order, and the summary cache content-hashes the IR, so the
    // construction must be reproducible run to run.
    let mut def_blocks: BTreeMap<InstId, BTreeSet<BlockId>> = BTreeMap::new();
    for (bid, block) in func.iter_blocks() {
        for &iid in &block.insts {
            if let InstKind::Store { ptr: Value::Inst(a), .. } = &func.inst(iid).kind {
                if promotable[a.0 as usize] {
                    def_blocks.entry(*a).or_default().insert(bid);
                }
            }
        }
    }

    // phis[block] = (alloca, φ inst) pairs in ascending alloca order, as
    // the allocas are visited in that order.
    let mut phis: Vec<Vec<(InstId, InstId)>> = vec![Vec::new(); func.blocks.len()];
    for (&alloca, defs) in &def_blocks {
        let ty = match &func.inst(alloca).kind {
            InstKind::Alloca { ty, .. } => ty.clone(),
            _ => unreachable!("promotable set only holds allocas"),
        };
        let mut work: Vec<BlockId> = defs.iter().copied().collect();
        let mut placed: HashSet<BlockId> = HashSet::new();
        let mut considered: BTreeSet<BlockId> = defs.clone();
        while let Some(b) = work.pop() {
            if !cfg.is_reachable(b) {
                continue;
            }
            for &df in &dom.frontier[b.0 as usize] {
                if placed.contains(&df) {
                    continue;
                }
                placed.insert(df);
                let phi_id = InstId(func.insts.len() as u32);
                func.insts.push(Inst {
                    kind: InstKind::Phi { incoming: Vec::new() },
                    ty: ty.clone(),
                    span: func.inst(alloca).span,
                });
                func.blocks[df.0 as usize].insts.insert(0, phi_id);
                phis[df.0 as usize].push((alloca, phi_id));
                if considered.insert(df) {
                    work.push(df);
                }
            }
        }
    }

    // ---- renaming walk ----------------------------------------------------
    // All indexed by `InstId`: each promoted alloca's stack of current
    // values, the replacement of each removed load, and the instructions
    // to delete from block lists (the promoted allocas themselves first).
    let n = func.insts.len();
    let mut dead = promotable.clone();
    dead.resize(n, false);
    let mut rename = Rename {
        promotable: &promotable,
        phis: &phis,
        stacks: vec![Vec::new(); promotable.len()],
        replace: vec![None; n],
        dead,
    };

    // Iterative DFS over the dominator tree.
    struct Frame {
        block: BlockId,
        child_idx: usize,
        pushed: Vec<InstId>, // allocas whose stacks were pushed in this frame
    }
    let entry = func.entry();
    let mut frames = vec![Frame { block: entry, child_idx: 0, pushed: Vec::new() }];
    rename.block(func, &cfg, entry, &mut frames.last_mut().unwrap().pushed);

    while !frames.is_empty() {
        let top = frames.len() - 1;
        let block = frames[top].block;
        let idx = frames[top].child_idx;
        let children = &dom.children[block.0 as usize];
        if idx < children.len() {
            frames[top].child_idx += 1;
            let child = children[idx];
            if !cfg.is_reachable(child) {
                continue;
            }
            let mut pushed = Vec::new();
            rename.block(func, &cfg, child, &mut pushed);
            frames.push(Frame { block: child, child_idx: 0, pushed });
        } else {
            // Pop: undo stack pushes.
            let frame = frames.pop().unwrap();
            for a in frame.pushed {
                rename.stacks[a.0 as usize].pop();
            }
        }
    }

    // ---- cleanup ----------------------------------------------------------
    // Remove dead instructions from block lists and rewrite any remaining
    // operand references through the replacement map (phi incoming values
    // were already resolved during renaming).
    let Rename { replace, dead, .. } = rename;
    for block in &mut func.blocks {
        block.insts.retain(|i| !dead[i.0 as usize]);
    }
    let replaced = replace.iter().filter(|r| r.is_some()).count();
    let resolve = |v: &Value| -> Value {
        let mut cur = v.clone();
        let mut guard = 0;
        while let Value::Inst(id) = cur {
            match &replace[id.0 as usize] {
                Some(next) => {
                    cur = next.clone();
                    guard += 1;
                    if guard > replaced + 1 {
                        break;
                    }
                }
                None => break,
            }
        }
        cur
    };
    for inst in &mut func.insts {
        for op in inst.kind.operands_mut() {
            *op = resolve(op);
        }
    }
    for block in &mut func.blocks {
        for op in block.terminator.operands_mut() {
            *op = resolve(op);
        }
    }

    promoted
}

/// Replaces bodies of unreachable blocks with empty `Unreachable` stubs so
/// later passes can ignore them, and removes their edges from `cfg` (the
/// CFG of `func`), which then matches the cleared function.
fn clear_unreachable_blocks(func: &mut Function, cfg: &mut Cfg) {
    for (i, block) in func.blocks.iter_mut().enumerate() {
        if !cfg.is_reachable(BlockId(i as u32)) {
            block.insts.clear();
            block.terminator = Terminator::Unreachable;
            cfg.succs[i].clear();
        }
    }
    let rpo_index = &cfg.rpo_index;
    for preds in &mut cfg.preds {
        preds.retain(|p| rpo_index[p.0 as usize] != usize::MAX);
    }
}

/// The renaming walk's state, indexed by `InstId`.
struct Rename<'a> {
    /// Which allocas are promoted (shorter than the φ-extended function).
    promotable: &'a [bool],
    /// Per block, its (alloca, φ) pairs in ascending alloca order.
    phis: &'a [Vec<(InstId, InstId)>],
    /// Per promoted alloca, its current values, innermost last.
    stacks: Vec<Vec<Value>>,
    /// The value that replaces each removed load.
    replace: Vec<Option<Value>>,
    /// Instructions to delete from block lists.
    dead: Vec<bool>,
}

impl Rename<'_> {
    fn is_promotable(&self, a: InstId) -> bool {
        self.promotable.get(a.0 as usize).copied().unwrap_or(false)
    }

    /// Rewrites `op` through the replacement map.
    fn rewrite(&self, op: &mut Value) {
        if let Value::Inst(id) = op {
            if let Some(v) = &self.replace[id.0 as usize] {
                *op = v.clone();
            }
        }
    }

    /// Renames `block`, recording in `pushed` each alloca whose stack it
    /// pushed.
    fn block(&mut self, func: &mut Function, cfg: &Cfg, block: BlockId, pushed: &mut Vec<InstId>) {
        // φ-defs first: they become the current value of their variable.
        for &(a, phi) in &self.phis[block.0 as usize] {
            self.stacks[a.0 as usize].push(Value::Inst(phi));
            pushed.push(a);
        }

        for i in 0..func.blocks[block.0 as usize].insts.len() {
            let iid = func.blocks[block.0 as usize].insts[i];
            // Rewrite operands through the replacement map first.
            for op in func.insts[iid.0 as usize].kind.operands_mut() {
                self.rewrite(op);
            }
            match &func.insts[iid.0 as usize].kind {
                InstKind::Load { ptr: Value::Inst(a) } if self.is_promotable(*a) => {
                    let current = self.stacks[a.0 as usize]
                        .last()
                        .cloned()
                        .unwrap_or_else(|| undef_value(&func.insts[iid.0 as usize].ty));
                    self.replace[iid.0 as usize] = Some(current);
                    self.dead[iid.0 as usize] = true;
                }
                InstKind::Store { ptr: Value::Inst(a), value } if self.is_promotable(*a) => {
                    self.stacks[a.0 as usize].push(value.clone());
                    pushed.push(*a);
                    self.dead[iid.0 as usize] = true;
                }
                _ => {}
            }
        }

        // Rewrite terminator operands.
        for op in func.blocks[block.0 as usize].terminator.operands_mut() {
            self.rewrite(op);
        }

        // Fill φ incoming in successors with our current values.
        for &succ in cfg.succs_of(block) {
            for &(a, phi) in &self.phis[succ.0 as usize] {
                let current = self.stacks[a.0 as usize]
                    .last()
                    .cloned()
                    .unwrap_or_else(|| undef_value(&func.insts[phi.0 as usize].ty));
                if let InstKind::Phi { incoming } = &mut func.insts[phi.0 as usize].kind {
                    incoming.push((block, current));
                }
            }
        }
    }
}

/// The "undefined" placeholder for a type (reads before any write).
fn undef_value(ty: &Type) -> Value {
    match ty {
        Type::Float { .. } => Value::ConstFloat(0.0, ty.clone()),
        Type::Ptr(_) => Value::ConstNull(ty.clone()),
        _ => Value::ConstInt(0, ty.clone()),
    }
}

/// Allocas whose address is only used by loads and stores (as the
/// pointer), as a flag per `InstId`.
fn find_promotable(func: &Function) -> Vec<bool> {
    let mut allocas = vec![false; func.insts.len()];
    for (iid, inst) in func.iter_insts() {
        if let InstKind::Alloca { ty, .. } = &inst.kind {
            if ty.is_scalar() {
                allocas[iid.0 as usize] = true;
            }
        }
    }
    let mut disqualify = |v: &Value| {
        if let Value::Inst(id) = v {
            allocas[id.0 as usize] = false;
        }
    };
    // Disqualify allocas used outside load/store-pointer position.
    for (_, inst) in func.iter_insts() {
        match &inst.kind {
            InstKind::Load { ptr: Value::Inst(_) } => {}
            // Storing the *address itself* somewhere disqualifies it.
            InstKind::Store { ptr: Value::Inst(_), value } => disqualify(value),
            other => other.for_each_operand(&mut disqualify),
        }
    }
    for (_, block) in func.iter_blocks() {
        for op in block.terminator.operands() {
            disqualify(op);
        }
    }
    allocas
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower;
    use safeflow_syntax::diag::Diagnostics;
    use safeflow_syntax::parse_source;

    fn lower_and_promote(src: &str) -> Module {
        let pr = parse_source("t.c", src);
        assert!(!pr.diags.has_errors(), "{:?}", pr.diags);
        let mut diags = Diagnostics::new();
        let mut m = lower(&pr.unit, &mut diags);
        assert!(!diags.has_errors(), "{:?}", diags);
        promote_module(&mut m);
        m
    }

    fn func<'m>(m: &'m Module, name: &str) -> &'m Function {
        m.function(m.function_by_name(name).unwrap())
    }

    fn count_kind(f: &Function, pred: impl Fn(&InstKind) -> bool) -> usize {
        f.iter_insts().filter(|(_, i)| pred(&i.kind)).count()
    }

    #[test]
    fn straightline_locals_fully_promoted() {
        let m = lower_and_promote("int f(int a, int b) { int c = a + b; return c * 2; }");
        let f = func(&m, "f");
        assert_eq!(count_kind(f, |k| matches!(k, InstKind::Alloca { .. })), 0);
        assert_eq!(count_kind(f, |k| matches!(k, InstKind::Load { .. })), 0);
        assert_eq!(count_kind(f, |k| matches!(k, InstKind::Store { .. })), 0);
    }

    #[test]
    fn diamond_inserts_phi() {
        let m =
            lower_and_promote("int f(int x) { int r; if (x > 0) r = 1; else r = 2; return r; }");
        let f = func(&m, "f");
        assert!(count_kind(f, |k| matches!(k, InstKind::Phi { .. })) >= 1);
        // The return must flow from a phi.
        let ret_block = f
            .iter_blocks()
            .find(|(_, b)| matches!(b.terminator, Terminator::Ret(Some(_))))
            .unwrap();
        match &ret_block.1.terminator {
            Terminator::Ret(Some(Value::Inst(id))) => {
                assert!(matches!(f.inst(*id).kind, InstKind::Phi { .. }));
            }
            other => panic!("unexpected terminator {other:?}"),
        }
    }

    #[test]
    fn phi_incoming_matches_predecessors() {
        let m =
            lower_and_promote("int f(int x) { int r; if (x > 0) r = 1; else r = 2; return r; }");
        let f = func(&m, "f");
        let cfg = Cfg::build(f);
        for (bid, block) in f.iter_blocks() {
            for &iid in &block.insts {
                if let InstKind::Phi { incoming } = &f.inst(iid).kind {
                    let mut inc_blocks: Vec<BlockId> = incoming.iter().map(|(b, _)| *b).collect();
                    inc_blocks.sort();
                    let mut preds = cfg.preds_of(bid).to_vec();
                    preds.sort();
                    assert_eq!(inc_blocks, preds, "phi incoming must cover predecessors");
                }
            }
        }
    }

    #[test]
    fn loop_counter_becomes_phi() {
        let m = lower_and_promote(
            "int f(int n) { int s = 0; int i = 0; while (i < n) { s = s + i; i = i + 1; } return s; }",
        );
        let f = func(&m, "f");
        // i and s each need a phi at the loop header.
        assert!(count_kind(f, |k| matches!(k, InstKind::Phi { .. })) >= 2);
        assert_eq!(count_kind(f, |k| matches!(k, InstKind::Alloca { .. })), 0);
    }

    #[test]
    fn address_taken_local_not_promoted() {
        let m = lower_and_promote("void g(int *p); int f(void) { int x = 1; g(&x); return x; }");
        let f = func(&m, "f");
        // x's alloca must survive (its address escapes into g).
        assert_eq!(count_kind(f, |k| matches!(k, InstKind::Alloca { .. })), 1);
        assert!(count_kind(f, |k| matches!(k, InstKind::Load { .. })) >= 1);
    }

    #[test]
    fn aggregate_local_not_promoted() {
        let m = lower_and_promote(
            "typedef struct { int a; int b; } P; int f(void) { P p; p.a = 1; return p.a; }",
        );
        let f = func(&m, "f");
        assert_eq!(count_kind(f, |k| matches!(k, InstKind::Alloca { .. })), 1);
    }

    #[test]
    fn globals_unaffected_by_promotion() {
        let m = lower_and_promote("int g; int f(void) { g = 3; return g; }");
        let f = func(&m, "f");
        // Loads/stores to globals stay.
        assert!(count_kind(f, |k| matches!(k, InstKind::Store { .. })) >= 1);
        assert!(count_kind(f, |k| matches!(k, InstKind::Load { .. })) >= 1);
    }

    #[test]
    fn short_circuit_scratch_promoted_to_phi() {
        let m = lower_and_promote("int f(int a, int b) { return a && b; }");
        let f = func(&m, "f");
        assert_eq!(count_kind(f, |k| matches!(k, InstKind::Alloca { .. })), 0);
        assert!(count_kind(f, |k| matches!(k, InstKind::Phi { .. })) >= 1);
    }

    #[test]
    fn use_before_def_gets_undef_constant() {
        // `r` is only assigned in one branch; the other path merges an undef
        // placeholder rather than crashing.
        let m = lower_and_promote("int f(int x) { int r; if (x) r = 5; return r; }");
        let f = func(&m, "f");
        let phi_count = count_kind(f, |k| matches!(k, InstKind::Phi { .. }));
        assert!(phi_count >= 1);
    }

    #[test]
    fn params_promote_cleanly() {
        let m = lower_and_promote("int f(int a) { a = a + 1; return a; }");
        let f = func(&m, "f");
        assert_eq!(count_kind(f, |k| matches!(k, InstKind::Alloca { .. })), 0);
    }

    #[test]
    fn figure2_main_promotes_scalars() {
        let m = lower_and_promote(
            r#"
            typedef struct { float control; } SHMData;
            SHMData *feedback;
            void *shmat(int shmid, void *addr, int flags);
            float decision(SHMData *f, float s);
            void sendControl(float output);
            int main() {
                void *shmStart;
                float output;
                shmStart = shmat(0, 0, 0);
                feedback = (SHMData *) shmStart;
                output = decision(feedback, 1.0);
                sendControl(output);
                return 0;
            }
            "#,
        );
        let f = func(&m, "main");
        // All scalars (shmStart, output) promoted.
        assert_eq!(count_kind(f, |k| matches!(k, InstKind::Alloca { .. })), 0);
    }
}
