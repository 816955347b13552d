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
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

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
    if promotable.is_empty() {
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
                if promotable.contains(a) {
                    def_blocks.entry(*a).or_default().insert(bid);
                }
            }
        }
    }

    // phis[(block, alloca)] = phi inst id.
    let mut phis: BTreeMap<(BlockId, InstId), InstId> = BTreeMap::new();
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
                phis.insert((df, alloca), phi_id);
                if considered.insert(df) {
                    work.push(df);
                }
            }
        }
    }

    // ---- renaming walk ----------------------------------------------------
    let mut stacks: HashMap<InstId, Vec<Value>> = HashMap::new();
    for &a in &promotable {
        stacks.insert(a, Vec::new());
    }
    // Replacement map for removed loads.
    let mut replace: HashMap<InstId, Value> = HashMap::new();
    // Instructions to delete from block lists.
    let mut dead: HashSet<InstId> = HashSet::new();
    for &a in &promotable {
        dead.insert(a); // the alloca itself
    }

    // Iterative DFS over the dominator tree.
    struct Frame {
        block: BlockId,
        child_idx: usize,
        pushed: Vec<InstId>, // allocas whose stacks were pushed in this frame
    }
    let entry = func.entry();
    let mut frames = vec![Frame { block: entry, child_idx: 0, pushed: Vec::new() }];
    rename_block(
        func,
        &cfg,
        entry,
        &promotable,
        &phis,
        &mut stacks,
        &mut replace,
        &mut dead,
        &mut frames.last_mut().unwrap().pushed,
    );

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
            rename_block(
                func,
                &cfg,
                child,
                &promotable,
                &phis,
                &mut stacks,
                &mut replace,
                &mut dead,
                &mut pushed,
            );
            frames.push(Frame { block: child, child_idx: 0, pushed });
        } else {
            // Pop: undo stack pushes.
            let frame = frames.pop().unwrap();
            for a in frame.pushed {
                stacks.get_mut(&a).unwrap().pop();
            }
        }
    }

    // ---- cleanup ----------------------------------------------------------
    // Remove dead instructions from block lists and rewrite any remaining
    // operand references through the replacement map (phi incoming values
    // were already resolved during renaming).
    for block in &mut func.blocks {
        block.insts.retain(|i| !dead.contains(i));
    }
    let resolve = |v: &Value, replace: &HashMap<InstId, Value>| -> Value {
        let mut cur = v.clone();
        let mut guard = 0;
        while let Value::Inst(id) = cur {
            match replace.get(&id) {
                Some(next) => {
                    cur = next.clone();
                    guard += 1;
                    if guard > replace.len() + 1 {
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
            *op = resolve(op, &replace);
        }
    }
    for block in &mut func.blocks {
        for op in block.terminator.operands_mut() {
            *op = resolve(op, &replace);
        }
    }

    promotable.len()
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

#[allow(clippy::too_many_arguments)]
fn rename_block(
    func: &mut Function,
    cfg: &Cfg,
    block: BlockId,
    promotable: &HashSet<InstId>,
    phis: &BTreeMap<(BlockId, InstId), InstId>,
    stacks: &mut HashMap<InstId, Vec<Value>>,
    replace: &mut HashMap<InstId, Value>,
    dead: &mut HashSet<InstId>,
    pushed: &mut Vec<InstId>,
) {
    // φ-defs first: they become the current value of their variable.
    for (&(b, a), &phi) in phis.iter() {
        if b == block {
            stacks.get_mut(&a).unwrap().push(Value::Inst(phi));
            pushed.push(a);
        }
    }

    let inst_ids: Vec<InstId> = func.blocks[block.0 as usize].insts.clone();
    for iid in inst_ids {
        // Rewrite operands through the replacement map first.
        let kind = &mut func.insts[iid.0 as usize].kind;
        for op in kind.operands_mut() {
            if let Value::Inst(id) = op {
                if let Some(v) = replace.get(id) {
                    *op = v.clone();
                }
            }
        }
        match &func.insts[iid.0 as usize].kind {
            InstKind::Load { ptr: Value::Inst(a) } if promotable.contains(a) => {
                let current = stacks[a]
                    .last()
                    .cloned()
                    .unwrap_or_else(|| undef_value(&func.insts[iid.0 as usize].ty));
                replace.insert(iid, current);
                dead.insert(iid);
            }
            InstKind::Store { ptr: Value::Inst(a), value } if promotable.contains(a) => {
                let a = *a;
                let v = value.clone();
                stacks.get_mut(&a).unwrap().push(v);
                pushed.push(a);
                dead.insert(iid);
            }
            _ => {}
        }
    }

    // Rewrite terminator operands.
    {
        let term = &mut func.blocks[block.0 as usize].terminator;
        for op in term.operands_mut() {
            if let Value::Inst(id) = op {
                if let Some(v) = replace.get(id) {
                    *op = v.clone();
                }
            }
        }
    }

    // Fill φ incoming in successors with our current values.
    for &succ in cfg.succs_of(block) {
        for (&(b, a), &phi) in phis.iter() {
            if b == succ {
                let current = stacks[&a]
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

/// Allocas whose address is only used by loads and stores (as the pointer).
fn find_promotable(func: &Function) -> HashSet<InstId> {
    let mut allocas: HashSet<InstId> = HashSet::new();
    for (iid, inst) in func.iter_insts() {
        if let InstKind::Alloca { ty, .. } = &inst.kind {
            if ty.is_scalar() {
                allocas.insert(iid);
            }
        }
    }
    // Disqualify allocas used outside load/store-pointer position.
    for (_, inst) in func.iter_insts() {
        match &inst.kind {
            InstKind::Load { ptr: Value::Inst(_) } => {}
            InstKind::Store { ptr: Value::Inst(p), value } => {
                // Storing the *address itself* somewhere disqualifies it.
                if let Value::Inst(v) = value {
                    allocas.remove(v);
                }
                let _ = p;
            }
            other => {
                for op in other.operands() {
                    if let Value::Inst(id) = op {
                        allocas.remove(id);
                    }
                }
            }
        }
    }
    for (_, block) in func.iter_blocks() {
        for op in block.terminator.operands() {
            if let Value::Inst(id) = op {
                allocas.remove(id);
            }
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
