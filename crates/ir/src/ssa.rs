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

use crate::cfg::{BlockLists, Cfg};
use crate::dom::DomTree;
use crate::module::*;
use crate::types::{Type, TypeKind, TypeTable};

/// Promotes eligible allocas in every defined function of `module` to SSA
/// values. Returns the total number of promoted slots.
///
/// An alloca is eligible when its type is scalar and its address is used
/// *only* as the pointer operand of loads and stores — exactly the slots
/// whose address never escapes.
pub fn promote_module(module: &mut Module) -> usize {
    let (mut graphs, mut scratch) = (Graphs::default(), Scratch::default());
    let Module { types, functions, .. } = module;
    functions
        .iter_mut()
        .filter(|f| f.is_definition)
        .map(|f| promote(f, types, &mut graphs, &mut scratch))
        .sum()
}

/// The CFG, dominator tree and dominance frontiers of the function being
/// promoted, rebuilt in place for each function of a module.
#[derive(Default)]
struct Graphs {
    cfg: Cfg,
    dom: DomTree,
    /// Dominance frontier of each block, each list in ascending order.
    frontiers: BlockLists,
}

/// Working state of the pass, kept across the functions of a module so
/// that each function reuses the buffers of the last one. Per-instruction
/// tables are indexed by `InstId`, per-block ones by `BlockId`; the
/// per-block sets of φ placement are epoch stamps, so clearing one is an
/// increment.
#[derive(Default)]
struct Scratch {
    /// Per instruction, the dense slot number of a promotable alloca, else
    /// [`NO_SLOT`] (sized before the φs are added).
    slot: Vec<u32>,
    /// Per instruction, whether its value is used other than as the
    /// pointer of a load or store.
    escaped: Vec<bool>,
    /// `(alloca, block)` for every block that stores to a promotable
    /// alloca, sorted: grouped by alloca, blocks ascending within a group.
    defs: Vec<(InstId, BlockId)>,
    /// Per store target, one past the last block recorded in `defs`.
    last_def: Vec<u32>,
    /// Dominance-frontier edges `(block, frontier block)`, deduplicated.
    frontier_edges: Vec<(BlockId, BlockId)>,
    /// Per block, one past the last frontier block recorded for it.
    last_frontier: Vec<u32>,
    /// Per block, the epoch in which it got a φ for the current alloca.
    placed: Vec<u32>,
    /// Per block, the epoch in which it joined the current worklist.
    considered: Vec<u32>,
    work: Vec<BlockId>,
    /// `(block, alloca)` for each φ to create, in creation order.
    placements: Vec<(BlockId, InstId)>,
    /// `(block, φ)` in creation order, then sorted by block.
    new_phis: Vec<(BlockId, InstId)>,
    /// The slot of each φ's alloca, indexed by `φ - first φ id`.
    phi_slot: Vec<u32>,
    /// Per block, how many φs head its instruction list.
    phi_count: Vec<u32>,
    /// Per slot, its current value in the renaming walk.
    current: Vec<Option<Value>>,
    /// The values `current` held before each push, innermost last; a
    /// dominator-tree frame pops back to the length it started at.
    undo: Vec<(u32, Option<Value>)>,
    /// Per instruction, one more than the index in `replacements` of the
    /// value that replaces it (a removed load), or 0.
    replace: Vec<u32>,
    replacements: Vec<Value>,
    /// Instructions to delete from block lists.
    dead: Vec<bool>,
    /// The renaming walk's stack: a block, its next dominator-tree child
    /// and the length of `undo` when it was entered.
    frames: Vec<(BlockId, usize, usize)>,
}

/// The `slot` of an instruction that is not a promotable alloca.
const NO_SLOT: u32 = u32::MAX;

/// Resets `v` to `len` copies of `value`, keeping its allocation.
fn refill<T: Clone>(v: &mut Vec<T>, len: usize, value: T) {
    v.clear();
    v.resize(len, value);
}

fn promote(func: &mut Function, types: &TypeTable, g: &mut Graphs, s: &mut Scratch) -> usize {
    if func.blocks.is_empty() {
        return 0;
    }
    g.cfg.rebuild(func);
    clear_unreachable_blocks(func, &g.cfg);
    let promoted = s.find_promotable(func, types);
    if promoted == 0 {
        return 0;
    }
    g.dom.rebuild(&g.cfg);
    dominance_frontiers(&g.cfg, &g.dom, s, &mut g.frontiers);
    place_phis(func, &g.cfg, &g.frontiers, s);
    rename(func, types, &g.cfg, &g.dom, s, promoted);
    cleanup(func, s);
    promoted
}

/// Replaces bodies of unreachable blocks with empty `Unreachable` stubs so
/// later passes can ignore them. `cfg` keeps their edges; every use of it
/// below skips blocks without an immediate dominator.
fn clear_unreachable_blocks(func: &mut Function, cfg: &Cfg) {
    for (i, block) in func.blocks.iter_mut().enumerate() {
        if !cfg.is_reachable(BlockId(i as u32)) {
            block.insts.clear();
            block.terminator = Terminator::Unreachable;
        }
    }
}

/// Sets `frontiers` to the dominance frontier of each block (Cytron et al.
/// via Cooper–Harvey–Kennedy's formulation), each list in ascending order.
fn dominance_frontiers(cfg: &Cfg, dom: &DomTree, s: &mut Scratch, frontiers: &mut BlockLists) {
    let idom = &dom.idom;
    s.frontier_edges.clear();
    refill(&mut s.last_frontier, cfg.len(), 0);
    for b in 0..cfg.len() {
        let bid = BlockId(b as u32);
        let preds = cfg.preds_of(bid);
        let Some(b_idom) = idom[b] else { continue };
        if preds.len() < 2 {
            continue;
        }
        for &p in preds {
            if idom[p.0 as usize].is_none() {
                continue;
            }
            let mut runner = p;
            while runner != b_idom {
                // Blocks arrive in ascending order, so a repeat of `bid`
                // can only be the runner's last entry.
                let last = &mut s.last_frontier[runner.0 as usize];
                if *last != bid.0 + 1 {
                    *last = bid.0 + 1;
                    s.frontier_edges.push((runner, bid));
                }
                runner = match idom[runner.0 as usize] {
                    Some(d) if d != runner => d,
                    _ => break,
                };
            }
        }
    }
    let edges = &s.frontier_edges;
    frontiers.group(cfg.len(), |add| edges.iter().for_each(|&(b, df)| add(b, df)));
}

/// Places φs on the iterated dominance frontiers of each promotable
/// alloca's stores. φ ids are allocated alloca by alloca in ascending
/// order, each from a LIFO worklist seeded with the alloca's def blocks in
/// ascending order; the summary cache content-hashes the IR, so this order
/// is part of the output. A block's φs then head its instruction list in
/// reverse creation order.
fn place_phis(func: &mut Function, cfg: &Cfg, frontiers: &BlockLists, s: &mut Scratch) {
    let n = func.blocks.len();
    refill(&mut s.placed, n, 0);
    refill(&mut s.considered, n, 0);
    s.placements.clear();
    for (epoch, defs) in (1..).zip(s.defs.chunk_by(|x, y| x.0 == y.0)) {
        let alloca = defs[0].0;
        s.work.clear();
        for &(_, b) in defs {
            s.work.push(b);
            s.considered[b.0 as usize] = epoch;
        }
        while let Some(b) = s.work.pop() {
            if !cfg.is_reachable(b) {
                continue;
            }
            for &df in frontiers.get(b) {
                if s.placed[df.0 as usize] == epoch {
                    continue;
                }
                s.placed[df.0 as usize] = epoch;
                s.placements.push((df, alloca));
                if s.considered[df.0 as usize] != epoch {
                    s.considered[df.0 as usize] = epoch;
                    s.work.push(df);
                }
            }
        }
    }

    // Create the φs in placement order, growing the arena at most once.
    func.insts.reserve(s.placements.len());
    s.new_phis.clear();
    s.phi_slot.clear();
    for &(df, alloca) in &s.placements {
        let &Inst { kind: InstKind::Alloca { ty, .. }, span, .. } = func.inst(alloca) else {
            unreachable!("promotable set only holds allocas")
        };
        let phi = Inst {
            kind: InstKind::Phi { incoming: Vec::with_capacity(cfg.preds_of(df).len()) },
            ty,
            span,
        };
        s.new_phis.push((df, InstId(func.insts.len() as u32)));
        s.phi_slot.push(s.slot[alloca.0 as usize]);
        func.insts.push(phi);
    }

    // Splice each block's φs in once, newest first.
    refill(&mut s.phi_count, n, 0);
    s.new_phis.sort_unstable();
    for group in s.new_phis.chunk_by(|x, y| x.0 == y.0) {
        let block = group[0].0;
        s.phi_count[block.0 as usize] = group.len() as u32;
        let insts = &mut func.blocks[block.0 as usize].insts;
        insts.splice(0..0, group.iter().rev().map(|&(_, phi)| phi));
    }
}

impl Scratch {
    /// Numbers in `slot` the allocas whose type is scalar and whose address
    /// is only used by loads and stores (as the pointer), in `InstId`
    /// order, and records their def blocks in `defs`. Returns how many
    /// there are.
    fn find_promotable(&mut self, func: &Function, types: &TypeTable) -> usize {
        let n = func.insts.len();
        refill(&mut self.slot, n, NO_SLOT);
        refill(&mut self.escaped, n, false);
        refill(&mut self.last_def, n, 0);
        self.defs.clear();
        let escaped = &mut self.escaped;
        let mut escape = |v: &Value| {
            if let Value::Inst(id) = v {
                escaped[id.0 as usize] = true;
            }
        };
        for (bid, block) in func.iter_blocks() {
            for &iid in &block.insts {
                match &func.inst(iid).kind {
                    InstKind::Alloca { ty, .. } if types.is_scalar(*ty) => {
                        self.slot[iid.0 as usize] = 0
                    }
                    InstKind::Load { ptr: Value::Inst(_) } => {}
                    // Storing the *address itself* somewhere disqualifies it.
                    InstKind::Store { ptr: Value::Inst(a), value } => {
                        escape(value);
                        let last = &mut self.last_def[a.0 as usize];
                        if *last != bid.0 + 1 {
                            *last = bid.0 + 1;
                            self.defs.push((*a, bid));
                        }
                    }
                    other => other.for_each_operand(&mut escape),
                }
            }
            block.terminator.for_each_operand(&mut escape);
        }
        let mut promoted = 0;
        for (slot, &escaped) in self.slot.iter_mut().zip(escaped.iter()) {
            if *slot != NO_SLOT {
                *slot = if escaped { NO_SLOT } else { promoted };
                promoted += u32::from(!escaped);
            }
        }
        let slot = &self.slot;
        self.defs.retain(|&(a, _)| slot[a.0 as usize] != NO_SLOT);
        self.defs.sort_unstable();
        promoted as usize
    }

    /// The slot of `a`, if it is a promoted alloca.
    fn slot_of(&self, a: InstId) -> Option<u32> {
        self.slot.get(a.0 as usize).copied().filter(|&s| s != NO_SLOT)
    }

    /// Makes `value` the current value of `slot`, remembering the old one.
    fn push(&mut self, slot: u32, value: Value) {
        let old = self.current[slot as usize].replace(value);
        self.undo.push((slot, old));
    }

    /// The current value of `slot`, or the undefined value of `ty`.
    fn current_or_undef(&self, slot: u32, types: &TypeTable, ty: Type) -> Value {
        self.current[slot as usize].unwrap_or_else(|| undef_value(types, ty))
    }

    /// Renames `block`: its φs and stores become the current values of
    /// their allocas, its loads of promoted allocas are replaced, and the
    /// φs of its successors get this block's current values.
    fn rename_block(
        &mut self,
        func: &mut Function,
        types: &TypeTable,
        cfg: &Cfg,
        block: BlockId,
        first_phi: usize,
    ) {
        let b = block.0 as usize;
        // φ-defs first, in creation (ascending alloca) order.
        for i in (0..self.phi_count[b] as usize).rev() {
            let phi = func.blocks[b].insts[i];
            self.push(self.phi_slot[phi.0 as usize - first_phi], Value::Inst(phi));
        }

        for i in 0..func.blocks[b].insts.len() {
            let iid = func.blocks[b].insts[i];
            let inst = &mut func.insts[iid.0 as usize];
            inst.kind.for_each_operand_mut(|op| self.rewrite(op));
            match &inst.kind {
                InstKind::Load { ptr: Value::Inst(a) } => {
                    let Some(slot) = self.slot_of(*a) else { continue };
                    let current = self.current_or_undef(slot, types, inst.ty);
                    self.replacements.push(current);
                    self.replace[iid.0 as usize] = self.replacements.len() as u32;
                    self.dead[iid.0 as usize] = true;
                }
                InstKind::Store { ptr: Value::Inst(a), value } => {
                    let Some(slot) = self.slot_of(*a) else { continue };
                    self.push(slot, *value);
                    self.dead[iid.0 as usize] = true;
                }
                _ => {}
            }
        }
        let terminator = &mut func.blocks[b].terminator;
        terminator.for_each_operand_mut(|op| self.rewrite(op));

        // Fill φ incoming in successors with our current values, once per
        // edge.
        for &succ in cfg.succs_of(block) {
            let succ = succ.0 as usize;
            for i in (0..self.phi_count[succ] as usize).rev() {
                let phi = func.blocks[succ].insts[i];
                let phi_inst = &mut func.insts[phi.0 as usize];
                let slot = self.phi_slot[phi.0 as usize - first_phi];
                let current = self.current_or_undef(slot, types, phi_inst.ty);
                if let InstKind::Phi { incoming } = &mut phi_inst.kind {
                    incoming.push((block, current));
                }
            }
        }
    }

    /// Rewrites `op` through the replacement map, one step.
    fn rewrite(&self, op: &mut Value) {
        if let Value::Inst(id) = op {
            if let Some(r) = self.replace[id.0 as usize].checked_sub(1) {
                *op = self.replacements[r as usize];
            }
        }
    }
}

/// The renaming walk: a depth-first walk of the dominator tree from the
/// entry, skipping unreachable blocks.
fn rename(
    func: &mut Function,
    types: &TypeTable,
    cfg: &Cfg,
    dom: &DomTree,
    s: &mut Scratch,
    slots: usize,
) {
    let n = func.insts.len();
    let first_phi = n - s.phi_slot.len();
    refill(&mut s.current, slots, None);
    refill(&mut s.replace, n, 0);
    s.replacements.clear();
    // The promoted allocas go first.
    s.dead.clear();
    s.dead.extend(s.slot.iter().map(|&slot| slot != NO_SLOT));
    s.dead.resize(n, false);
    s.undo.clear();
    s.frames.clear();

    let entry = func.entry();
    s.rename_block(func, types, cfg, entry, first_phi);
    s.frames.push((entry, 0, 0));
    while let Some(&mut (block, ref mut next, mark)) = s.frames.last_mut() {
        if let Some(&child) = dom.children(block).get(*next) {
            *next += 1;
            if !cfg.is_reachable(child) {
                continue;
            }
            let mark = s.undo.len();
            s.rename_block(func, types, cfg, child, first_phi);
            s.frames.push((child, 0, mark));
        } else {
            s.frames.pop();
            for (slot, old) in s.undo.drain(mark..).rev() {
                s.current[slot as usize] = old;
            }
        }
    }
}

/// Removes dead instructions from block lists and resolves every operand
/// that names a removed load to its final value (φ incoming values were
/// already resolved during renaming). The dead instructions stay in the
/// arena, their operands rewritten too. Only operands with a replacement
/// are touched.
fn cleanup(func: &mut Function, s: &Scratch) {
    let dead = &s.dead;
    for block in &mut func.blocks {
        block.insts.retain(|i| !dead[i.0 as usize]);
    }
    let (replace, replacements) = (&s.replace, &s.replacements);
    let resolve = |op: &mut Value| {
        let Value::Inst(id) = op else { return };
        let Some(r) = replace[id.0 as usize].checked_sub(1) else { return };
        // Follow chains of replaced loads; the guard bounds a cycle.
        let mut cur = &replacements[r as usize];
        let mut guard = 1;
        while let Value::Inst(id) = cur {
            match replace[id.0 as usize].checked_sub(1) {
                Some(r) if guard <= replacements.len() + 1 => {
                    cur = &replacements[r as usize];
                    guard += 1;
                }
                _ => break,
            }
        }
        *op = *cur;
    };
    for inst in &mut func.insts {
        inst.kind.for_each_operand_mut(resolve);
    }
    for block in &mut func.blocks {
        block.terminator.for_each_operand_mut(resolve);
    }
}

/// The "undefined" placeholder for a type (reads before any write).
fn undef_value(types: &TypeTable, ty: Type) -> Value {
    match types.kind(ty) {
        TypeKind::Float { .. } => Value::ConstFloat(0.0, ty),
        TypeKind::Ptr(_) => Value::ConstNull(ty),
        _ => Value::ConstInt(0, ty),
    }
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
        m.function(m.function_by_name(name.into()).unwrap())
    }

    fn count_kind(f: &Function, pred: impl Fn(&InstKind) -> bool) -> usize {
        f.iter_insts().filter(|(_, i)| pred(&i.kind)).count()
    }

    /// The dominance frontier of every block of a hand-built function
    /// whose terminators are `terms`.
    fn frontiers(terms: Vec<Terminator>) -> Vec<Vec<BlockId>> {
        let blocks = terms
            .into_iter()
            .map(|terminator| BasicBlock { insts: vec![], terminator, name: "".into() })
            .collect();
        let f = Function {
            name: "t".into(),
            ret: Type::VOID,
            params: vec![],
            varargs: false,
            insts: vec![],
            blocks,
            annotations: vec![],
            is_definition: true,
            span: safeflow_syntax::span::Span::dummy(),
        };
        let cfg = Cfg::build(&f);
        let mut df = BlockLists::default();
        dominance_frontiers(&cfg, &DomTree::build(&cfg), &mut Scratch::default(), &mut df);
        (0..cfg.len() as u32).map(|b| df.get(BlockId(b)).to_vec()).collect()
    }

    fn cond(then_bb: u32, else_bb: u32) -> Terminator {
        Terminator::CondBr {
            cond: Value::i32(1),
            then_bb: BlockId(then_bb),
            else_bb: BlockId(else_bb),
        }
    }

    #[test]
    fn diamond_frontiers() {
        let br = |b| Terminator::Br(BlockId(b));
        let df = frontiers(vec![cond(1, 2), br(3), br(3), Terminator::Ret(None)]);
        // Both arms have the join in their frontier; entry has none.
        assert_eq!(df, [vec![], vec![BlockId(3)], vec![BlockId(3)], vec![]]);
    }

    #[test]
    fn loop_frontier_contains_header() {
        // entry(0) -> cond(1); cond -> body(2), exit(3); body -> cond.
        let br = |b| Terminator::Br(BlockId(b));
        let df = frontiers(vec![br(1), cond(2, 3), br(1), Terminator::Ret(None)]);
        // The header is in its own frontier and in the body's.
        assert_eq!(df, [vec![], vec![BlockId(1)], vec![BlockId(1)], vec![]]);
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
