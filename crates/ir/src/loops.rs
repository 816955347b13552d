//! Natural loop detection and induction-variable recognition.
//!
//! Restriction **A2** (paper §3.2) demands that shared-memory arrays inside
//! loops are indexed by provably affine expressions of loop induction
//! variables, with affine bounds. This module recovers the loop structure
//! the constraint generator needs: headers, bodies, latches, basic
//! induction variables (`phi` + constant step), and the header exit
//! condition.

use crate::cfg::Cfg;
use crate::dom::DomTree;
use crate::module::*;
use std::collections::HashSet;

/// A natural loop.
#[derive(Debug, Clone)]
pub struct Loop {
    /// Loop header (target of the back edge; dominates the body).
    pub header: BlockId,
    /// All blocks in the loop, including the header.
    pub body: HashSet<BlockId>,
    /// Blocks with a back edge to the header.
    pub latches: Vec<BlockId>,
    /// Basic induction variables of this loop.
    pub ivs: Vec<InductionVar>,
    /// The header's exit test, when it has the canonical
    /// `CondBr(Cmp(iv, bound))` shape.
    pub exit_test: Option<ExitTest>,
}

/// A basic induction variable: `iv = phi(init, iv + step)`.
#[derive(Debug, Clone)]
pub struct InductionVar {
    /// The φ instruction defining the IV at the header.
    pub phi: InstId,
    /// Initial value on loop entry.
    pub init: Value,
    /// Constant per-iteration step.
    pub step: i64,
}

/// The loop's controlling comparison at the header.
#[derive(Debug, Clone)]
pub struct ExitTest {
    /// The compared instruction (usually an IV φ).
    pub lhs: Value,
    /// Comparison predicate, oriented as `lhs op rhs` with the loop
    /// continuing while true.
    pub op: CmpOp,
    /// Loop-invariant bound.
    pub rhs: Value,
}

/// Finds all natural loops in `func` (loops sharing a header are merged).
pub fn find_loops(func: &Function, cfg: &Cfg, dom: &DomTree) -> Vec<Loop> {
    let mut loops: Vec<Loop> = Vec::new();
    for (bid, block) in func.iter_blocks() {
        if !cfg.is_reachable(bid) {
            continue;
        }
        for succ in block.terminator.successors() {
            if dom.dominates(succ, bid) {
                // Back edge bid -> succ.
                match loops.iter_mut().find(|l| l.header == succ) {
                    Some(l) => {
                        l.latches.push(bid);
                        collect_body(cfg, succ, bid, &mut l.body);
                    }
                    None => {
                        let mut body = HashSet::new();
                        body.insert(succ);
                        collect_body(cfg, succ, bid, &mut body);
                        loops.push(Loop {
                            header: succ,
                            body,
                            latches: vec![bid],
                            ivs: Vec::new(),
                            exit_test: None,
                        });
                    }
                }
            }
        }
    }
    for l in &mut loops {
        l.ivs = find_ivs(func, l);
        l.exit_test = find_exit_test(func, l);
    }
    loops
}

/// Adds to `body` every block that can reach `latch` without passing
/// through `header` (the classic natural-loop body computation).
fn collect_body(cfg: &Cfg, header: BlockId, latch: BlockId, body: &mut HashSet<BlockId>) {
    let mut work = vec![latch];
    while let Some(b) = work.pop() {
        if b == header || !body.insert(b) {
            continue;
        }
        for &p in cfg.preds_of(b) {
            work.push(p);
        }
    }
    body.insert(header);
}

/// Basic IVs: header φ with exactly one in-loop incoming that is
/// `φ + constant` (or `constant + φ` / `φ - constant`).
fn find_ivs(func: &Function, l: &Loop) -> Vec<InductionVar> {
    let mut ivs = Vec::new();
    for &iid in &func.block(l.header).insts {
        let InstKind::Phi { incoming } = &func.inst(iid).kind else { continue };
        let mut init: Option<Value> = None;
        let mut step: Option<i64> = None;
        let mut ok = true;
        for (pred, v) in incoming {
            if l.body.contains(pred) {
                // In-loop edge: must be phi +/- const.
                match step_of(func, iid, v) {
                    Some(s) => match step {
                        None => step = Some(s),
                        Some(prev) if prev == s => {}
                        _ => ok = false,
                    },
                    None => ok = false,
                }
            } else {
                // Entry edge.
                match &init {
                    None => init = Some(*v),
                    Some(prev) if prev == v => {}
                    _ => ok = false,
                }
            }
        }
        if ok {
            if let (Some(init), Some(step)) = (init, step) {
                ivs.push(InductionVar { phi: iid, init, step });
            }
        }
    }
    ivs
}

/// If `v` is `phi + c`, `c + phi`, or `phi - c`, returns the signed step.
fn step_of(func: &Function, phi: InstId, v: &Value) -> Option<i64> {
    let Value::Inst(id) = v else { return None };
    match &func.inst(*id).kind {
        InstKind::Bin { op: BinOp::Add, lhs, rhs } => {
            if *lhs == Value::Inst(phi) {
                rhs.as_const_int()
            } else if *rhs == Value::Inst(phi) {
                lhs.as_const_int()
            } else {
                None
            }
        }
        InstKind::Bin { op: BinOp::Sub, lhs, rhs } if *lhs == Value::Inst(phi) => {
            rhs.as_const_int().map(|c| -c)
        }
        // Pointer IVs step through ElemAddr.
        InstKind::ElemAddr { base, index } if *base == Value::Inst(phi) => index.as_const_int(),
        // A cast of the phi plus a constant still counts (int width changes).
        InstKind::Cast { value, .. } => step_of(func, phi, value),
        _ => None,
    }
}

/// Extracts the canonical header exit test `CondBr(Cmp(lhs, rhs))` where
/// the true edge stays in the loop.
fn find_exit_test(func: &Function, l: &Loop) -> Option<ExitTest> {
    let header = func.block(l.header);
    let Terminator::CondBr { cond, then_bb, else_bb } = &header.terminator else {
        return None;
    };
    let Value::Inst(cid) = cond else { return None };
    let InstKind::Cmp { op, lhs, rhs } = &func.inst(*cid).kind else {
        return None;
    };
    let then_in = l.body.contains(then_bb);
    let else_in = l.body.contains(else_bb);
    if then_in == else_in {
        return None; // not a rotated-exit loop shape we understand
    }
    let (op, lhs, rhs) = if then_in { (*op, *lhs, *rhs) } else { (negate(*op), *lhs, *rhs) };
    Some(ExitTest { lhs, op, rhs })
}

fn negate(op: CmpOp) -> CmpOp {
    match op {
        CmpOp::Eq => CmpOp::Ne,
        CmpOp::Ne => CmpOp::Eq,
        CmpOp::Lt => CmpOp::Ge,
        CmpOp::Le => CmpOp::Gt,
        CmpOp::Gt => CmpOp::Le,
        CmpOp::Ge => CmpOp::Lt,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower;
    use crate::ssa::promote_module;
    use safeflow_syntax::diag::Diagnostics;
    use safeflow_syntax::parse_source;

    fn loops_of(src: &str, fname: &str) -> (Module, Vec<Loop>) {
        let pr = parse_source("t.c", src);
        assert!(!pr.diags.has_errors());
        let mut diags = Diagnostics::new();
        let mut m = lower(&pr.unit, &mut diags);
        assert!(!diags.has_errors());
        promote_module(&mut m);
        let fid = m.function_by_name(fname.into()).unwrap();
        let f = m.function(fid);
        let cfg = Cfg::build(f);
        let dom = DomTree::build(&cfg);
        let ls = find_loops(f, &cfg, &dom);
        (m, ls)
    }

    #[test]
    fn simple_for_loop_recognized() {
        let (m, ls) = loops_of(
            "int f(int n, int *a) { int s = 0; int i; for (i = 0; i < n; i = i + 1) s += a[i]; return s; }",
            "f",
        );
        assert_eq!(ls.len(), 1);
        let l = &ls[0];
        // `i` is a basic IV; `s += a[i]` has a non-constant step so `s`
        // is not.
        assert_eq!(l.ivs.len(), 1);
        let iv = l.ivs.iter().find(|iv| iv.step == 1).expect("i recognized");
        assert_eq!(iv.init.as_const_int(), Some(0));
        // Exit test: i < n while in loop.
        let test = l.exit_test.as_ref().expect("canonical exit test");
        assert_eq!(test.op, CmpOp::Lt);
        let _ = m;
    }

    #[test]
    fn down_counting_loop() {
        let (_, ls) = loops_of(
            "int f(int n) { int s = 0; while (n > 0) { s = s + n; n = n - 1; } return s; }",
            "f",
        );
        assert_eq!(ls.len(), 1);
        let iv = ls[0].ivs.iter().find(|iv| iv.step == -1).expect("n is an IV with step -1");
        assert!(matches!(iv.init, Value::Param(0)));
        let test = ls[0].exit_test.as_ref().unwrap();
        assert_eq!(test.op, CmpOp::Gt);
    }

    #[test]
    fn nested_loops_found() {
        let (_, ls) = loops_of(
            "int f(int n) { int s = 0; int i; int j; for (i = 0; i < n; i++) { for (j = 0; j < i; j++) { s += j; } } return s; }",
            "f",
        );
        assert_eq!(ls.len(), 2);
        // The inner loop body is a subset of the outer loop body.
        let (outer, inner) =
            if ls[0].body.len() > ls[1].body.len() { (&ls[0], &ls[1]) } else { (&ls[1], &ls[0]) };
        assert!(inner.body.is_subset(&outer.body));
    }

    #[test]
    fn non_affine_update_not_an_iv() {
        let (_, ls) =
            loops_of("int f(int n) { int i = 1; while (i < n) { i = i * 2; } return i; }", "f");
        assert_eq!(ls.len(), 1);
        assert!(ls[0].ivs.is_empty(), "i*2 is not a basic IV");
    }

    #[test]
    fn infinite_loop_has_no_exit_test() {
        let (_, ls) = loops_of("void g(void); void f(void) { while (1) { g(); } }", "f");
        assert_eq!(ls.len(), 1);
        assert!(ls[0].exit_test.is_none());
    }

    #[test]
    fn do_while_latch_is_cond_block() {
        let (_, ls) =
            loops_of("int f(int n) { int i = 0; do { i++; } while (i < n); return i; }", "f");
        assert_eq!(ls.len(), 1);
        assert_eq!(ls[0].latches.len(), 1);
    }
}
