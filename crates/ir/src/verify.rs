//! IR verifier: structural invariants every pass must preserve.
//!
//! Run after lowering and after SSA promotion in tests; cheap enough to run
//! always in debug builds.

use crate::cfg::Cfg;
use crate::dom::DomTree;
use crate::module::*;
use std::mem;

/// A verifier failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyError {
    /// Function in which the violation was found.
    pub function: String,
    /// Description of the violation.
    pub message: String,
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "in `{}`: {}", self.function, self.message)
    }
}

impl std::error::Error for VerifyError {}

/// Verifies every defined function in `module`. Returns all violations.
pub fn verify_module(module: &Module) -> Vec<VerifyError> {
    let mut errors = Vec::new();
    for fid in module.definitions() {
        verify_function(module, module.function(fid), &mut errors);
    }
    errors
}

fn verify_function(module: &Module, func: &Function, errors: &mut Vec<VerifyError>) {
    let fail = |errors: &mut Vec<VerifyError>, msg: String| {
        errors.push(VerifyError { function: func.name.to_string(), message: msg });
    };

    if func.blocks.is_empty() {
        fail(errors, "definition has no blocks".into());
        return;
    }

    // Every block's instruction ids are valid and referenced at most once.
    let mut seen = vec![false; func.insts.len()];
    for (bid, block) in func.iter_blocks() {
        for &iid in &block.insts {
            if iid.0 as usize >= func.insts.len() {
                fail(errors, format!("{bid}: instruction {iid} out of range"));
                continue;
            }
            if mem::replace(&mut seen[iid.0 as usize], true) {
                fail(errors, format!("{bid}: instruction {iid} appears in multiple blocks"));
            }
        }
        // Terminator targets must be valid blocks.
        for succ in block.terminator.successors() {
            if succ.0 as usize >= func.blocks.len() {
                fail(errors, format!("{bid}: branch to out-of-range block {succ}"));
            }
        }
    }

    // Operand sanity: instruction operands must reference in-range values;
    // params must be in range. The context (`bb1/%4`, `bb1/terminator`)
    // is only rendered for an operand that fails.
    let check_value = |v: &Value, bid: BlockId, at: Option<InstId>, errors: &mut Vec<_>| {
        let problem = match v {
            Value::Inst(id) if id.0 as usize >= func.insts.len() => {
                format!("operand {id} out of range")
            }
            Value::Param(i) if *i as usize >= func.params.len() => {
                format!("parameter index {i} out of range")
            }
            Value::Global(g) if g.0 as usize >= module.globals.len() => {
                format!("global {g:?} out of range")
            }
            _ => return,
        };
        let message = match at {
            Some(iid) => format!("{bid}/{iid}: {problem}"),
            None => format!("{bid}/terminator: {problem}"),
        };
        errors.push(VerifyError { function: func.name.to_string(), message });
    };
    for (bid, block) in func.iter_blocks() {
        for &iid in &block.insts {
            func.inst(iid).kind.for_each_operand(|op| check_value(op, bid, Some(iid), errors));
        }
        block.terminator.for_each_operand(|op| check_value(op, bid, None, errors));
    }

    // Phi invariants: phis must be at the head of their block and their
    // incoming edges must exactly match CFG predecessors.
    let cfg = Cfg::build(func);
    for (bid, block) in func.iter_blocks() {
        if !cfg.is_reachable(bid) {
            continue;
        }
        let mut past_phis = false;
        for &iid in &block.insts {
            match &func.inst(iid).kind {
                InstKind::Phi { incoming } => {
                    if past_phis {
                        fail(errors, format!("{bid}: phi {iid} after non-phi instruction"));
                    }
                    let mut inc: Vec<BlockId> = incoming.iter().map(|(b, _)| *b).collect();
                    inc.sort();
                    inc.dedup();
                    let mut preds = cfg.preds_of(bid).to_vec();
                    preds.sort();
                    preds.dedup();
                    if inc != preds {
                        fail(
                            errors,
                            format!("{bid}: phi {iid} incoming {inc:?} does not match predecessors {preds:?}"),
                        );
                    }
                }
                _ => past_phis = true,
            }
        }
    }

    // Dominance: every non-phi use of an instruction result must be
    // dominated by its definition.
    let dom = DomTree::build(&cfg);
    let mut def_block: Vec<Option<BlockId>> = vec![None; func.insts.len()];
    let mut def_pos: Vec<usize> = vec![0; func.insts.len()];
    for (bid, block) in func.iter_blocks() {
        for (pos, &iid) in block.insts.iter().enumerate() {
            def_block[iid.0 as usize] = Some(bid);
            def_pos[iid.0 as usize] = pos;
        }
    }
    for (bid, block) in func.iter_blocks() {
        if !cfg.is_reachable(bid) {
            continue;
        }
        for (pos, &iid) in block.insts.iter().enumerate() {
            let inst = func.inst(iid);
            if let InstKind::Phi { incoming } = &inst.kind {
                // Phi operands must be dominated by their def at the end of
                // the corresponding predecessor.
                for (pred, v) in incoming {
                    if let Value::Inst(src) = v {
                        match def_block[src.0 as usize] {
                            Some(db) => {
                                if !dom.dominates(db, *pred) {
                                    fail(
                                        errors,
                                        format!("{bid}: phi {iid} operand {src} does not dominate edge from {pred}"),
                                    );
                                }
                            }
                            None => fail(
                                errors,
                                format!("{bid}: phi {iid} references dead instruction {src}"),
                            ),
                        }
                    }
                }
                continue;
            }
            inst.kind.for_each_operand(|op| {
                let Value::Inst(src) = op else { return };
                match def_block[src.0 as usize] {
                    Some(db) => {
                        let ok = if db == bid {
                            def_pos[src.0 as usize] < pos
                        } else {
                            dom.dominates(db, bid)
                        };
                        if !ok {
                            fail(
                                errors,
                                format!(
                                    "{bid}: use of {src} in {iid} not dominated by its definition"
                                ),
                            );
                        }
                    }
                    None => fail(errors, format!("{bid}: {iid} references dead instruction {src}")),
                }
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower;
    use crate::ssa::promote_module;
    use safeflow_syntax::diag::Diagnostics;
    use safeflow_syntax::parse_source;

    fn checked(src: &str) -> Module {
        let pr = parse_source("t.c", src);
        assert!(!pr.diags.has_errors(), "{:?}", pr.diags);
        let mut diags = Diagnostics::new();
        let mut m = lower(&pr.unit, &mut diags);
        assert!(!diags.has_errors(), "{diags:?}");
        let pre = verify_module(&m);
        assert!(pre.is_empty(), "pre-SSA verify failed: {pre:?}");
        promote_module(&mut m);
        let post = verify_module(&m);
        assert!(post.is_empty(), "post-SSA verify failed: {post:?}");
        m
    }

    #[test]
    fn verify_straightline() {
        checked("int f(int a) { return a + 1; }");
    }

    #[test]
    fn verify_branches_and_loops() {
        checked(
            "int f(int n) { int s = 0; int i; for (i = 0; i < n; i++) { if (i % 2) s += i; else s -= i; } return s; }",
        );
    }

    #[test]
    fn verify_short_circuit_and_ternary() {
        checked("int f(int a, int b) { int c = a && b; return c ? a : b; }");
    }

    #[test]
    fn verify_switch() {
        checked("int f(int x) { switch (x) { case 1: return 1; case 2: break; default: return 3; } return 0; }");
    }

    #[test]
    fn verify_structs_and_pointers() {
        checked(
            "typedef struct { float v[4]; int n; } D;\nfloat f(D *d, int i) { d->n = i; return d->v[i]; }",
        );
    }

    #[test]
    fn verify_early_returns_with_dead_code() {
        checked("int f(void) { return 1; return 2; }");
    }

    #[test]
    fn detects_bad_phi_incoming() {
        let pr = parse_source("t.c", "int f(int x) { int r; if (x) r = 1; else r = 2; return r; }");
        let mut diags = Diagnostics::new();
        let mut m = lower(&pr.unit, &mut diags);
        promote_module(&mut m);
        // Sabotage: drop one phi incoming edge.
        let fid = m.function_by_name("f".into()).unwrap();
        let func = m.function_mut(fid);
        let phi_id = func
            .iter_insts()
            .find(|(_, i)| matches!(i.kind, InstKind::Phi { .. }))
            .map(|(id, _)| id)
            .expect("has phi");
        if let InstKind::Phi { incoming } = &mut func.inst_mut(phi_id).kind {
            incoming.pop();
        }
        let errs = verify_module(&m);
        assert!(!errs.is_empty());
        assert!(errs.iter().any(|e| e.message.contains("does not match predecessors")));
    }

    #[test]
    fn detects_out_of_range_operand() {
        let pr = parse_source("t.c", "int f(void) { int x = 1; return x; }");
        let mut diags = Diagnostics::new();
        let mut m = lower(&pr.unit, &mut diags);
        let fid = m.function_by_name("f".into()).unwrap();
        let func = m.function_mut(fid);
        // Sabotage: the store reads a parameter `f` does not have, and the
        // terminator returns a bogus instruction id.
        let store = func.blocks[0].insts[1];
        if let InstKind::Store { value, .. } = &mut func.inst_mut(store).kind {
            *value = Value::Param(3);
        }
        func.blocks[0].terminator = Terminator::Ret(Some(Value::Inst(InstId(9999))));
        let messages: Vec<String> = verify_module(&m).into_iter().map(|e| e.message).collect();
        assert_eq!(
            messages,
            [
                format!("bb0/{store}: parameter index 3 out of range"),
                "bb0/terminator: operand %9999 out of range".to_string(),
            ]
        );
    }
}
