//! Control dependence (Ferrante–Ottenstein–Warren construction from the
//! post-dominator tree).
//!
//! Block `B` is control-dependent on block `A` when `A` has an outgoing
//! edge `A→S` such that `B` post-dominates `S` but `B` does not
//! post-dominate `A` — i.e., `A`'s branch decides whether `B` runs. Phase 3
//! of SafeFlow taints values defined in blocks that are control-dependent
//! on branches over unsafe values (paper §3.3/§3.4.1 — the source of the
//! analysis's classified false positives).

use crate::cfg::{BlockLists, Cfg};
use crate::dom::PostDomTree;
use crate::module::BlockId;

/// The blocks each branch of one function controls.
///
/// # Examples
///
/// ```
/// use safeflow_syntax::{parse_source, diag::Diagnostics};
/// use safeflow_ir::{build_module, Cfg, ControlDeps};
///
/// let pr = parse_source("d.c", "int f(int a) { int r = 0; if (a) r = 1; return r; }");
/// let mut diags = Diagnostics::new();
/// let module = build_module(&pr.unit, &mut diags);
/// let func = module.function(module.function_by_name("f".into()).unwrap());
/// let cfg = Cfg::build(func);
/// let cd = ControlDeps::build(&cfg);
/// // The `if` in the entry block decides whether the then-arm runs.
/// let then_arm = cfg.succs_of(func.entry())[0];
/// assert!(cd.controlled_by(func.entry()).contains(&then_arm));
/// ```
#[derive(Debug, Clone, Default)]
pub struct ControlDeps {
    /// The blocks control-dependent on each block, ascending: empty for
    /// all but the reachable branch blocks.
    controls: BlockLists,
}

impl ControlDeps {
    /// Computes the control dependences of the function whose CFG is `cfg`.
    pub fn build(cfg: &Cfg) -> ControlDeps {
        let mut cd = ControlDeps::default();
        cd.rebuild(cfg, &mut PostDomTree::default());
        cd
    }

    /// Makes these the control dependences of `cfg`, reusing their buffers
    /// and building `cfg`'s post-dominators into `pdom`: a pass over many
    /// functions keeps one of each.
    pub fn rebuild(&mut self, cfg: &Cfg, pdom: &mut PostDomTree) {
        pdom.rebuild(cfg);
        let exit = pdom.virtual_exit();
        self.controls.fill_sorted(cfg.len(), |a, controlled| {
            let succs = cfg.succs_of(a);
            if succs.len() < 2 || !cfg.is_reachable(a) {
                return; // only reachable branch points control anything
            }
            // Walk the post-dominator chain from each successor up to (but
            // not including) ipdom(a); every node on the way is
            // control-dependent on a — a itself too when a loop leads back
            // to it. Inside a loop that never exits the chain stops at the
            // successor, whose post-dominator is `None`.
            let stop = pdom.immediate(a);
            for &s in succs {
                let mut cur = Some(s);
                while let Some(c) = cur {
                    if Some(c) == stop || c == exit {
                        break;
                    }
                    controlled.push(c);
                    cur = pdom.immediate(c);
                }
            }
        });
    }

    /// Blocks whose execution is decided by `a`'s branch.
    pub fn controlled_by(&self, a: BlockId) -> &[BlockId] {
        self.controls.get(a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build_module;
    use crate::module::{Function, InstKind, Terminator};
    use safeflow_syntax::diag::Diagnostics;
    use safeflow_syntax::parse_source;

    fn cdeps(src: &str) -> (Function, Cfg, ControlDeps) {
        let pr = parse_source("t.c", src);
        assert!(!pr.diags.has_errors());
        let m = build_module(&pr.unit, &mut Diagnostics::new());
        let f = m.function(m.function_by_name("f".into()).unwrap()).clone();
        let cfg = Cfg::build(&f);
        let cd = ControlDeps::build(&cfg);
        (f, cfg, cd)
    }

    /// Whether some branch decides whether `b` runs.
    fn is_controlled(cfg: &Cfg, cd: &ControlDeps, b: BlockId) -> bool {
        cfg.rpo.iter().any(|&a| cd.controlled_by(a).contains(&b))
    }

    #[test]
    fn if_arms_depend_on_condition_block() {
        let (f, cfg, cd) =
            cdeps("int g(void); int f(int x) { int r = 0; if (x) r = g(); return r; }");
        let entry = f.entry();
        // The then-block is control-dependent on the entry (which branches).
        let then_bb = cfg.succs_of(entry)[0];
        assert!(cd.controlled_by(entry).contains(&then_bb));
    }

    #[test]
    fn join_not_dependent_on_branch() {
        let (f, cfg, cd) = cdeps("int f(int x) { int r; if (x) r = 1; else r = 2; return r; }");
        let join = f.iter_blocks().map(|(b, _)| b).find(|&b| cfg.preds_of(b).len() == 2).unwrap();
        // The join executes regardless of the branch: no control dependence.
        assert!(!is_controlled(&cfg, &cd, join));
    }

    #[test]
    fn loop_body_depends_on_header() {
        let (f, cfg, cd) =
            cdeps("int f(int n) { int s = 0; while (n > 0) { s += n; n--; } return s; }");
        let header = f.iter_blocks().map(|(b, _)| b).find(|&b| cfg.preds_of(b).len() == 2).unwrap();
        let body = cfg
            .succs_of(header)
            .iter()
            .copied()
            .find(|&b| {
                // body branches back to header eventually
                !matches!(f.block(b).terminator, Terminator::Ret(_))
            })
            .unwrap();
        assert!(cd.controlled_by(header).contains(&body));
        // The header controls itself (the back edge re-tests the condition).
        assert!(cd.controlled_by(header).contains(&header));
    }

    #[test]
    fn nested_if_transitive_dependence() {
        let (f, cfg, cd) = cdeps(
            "int g(void); int f(int a, int b) { int r = 0; if (a) { if (b) { r = g(); } } return r; }",
        );
        // The innermost block (containing the call) is decided by the inner
        // branch, which is itself decided by the outer one.
        let call_block = f
            .iter_blocks()
            .find(|(_, blk)| {
                blk.insts.iter().any(|&i| matches!(f.inst(i).kind, InstKind::Call { .. }))
            })
            .map(|(b, _)| b)
            .unwrap();
        let inner = *cfg.rpo.iter().find(|&&a| cd.controlled_by(a).contains(&call_block)).unwrap();
        let outer = *cfg.rpo.iter().find(|&&a| cd.controlled_by(a).contains(&inner)).unwrap();
        assert_ne!(inner, outer);
        assert_eq!(outer, f.entry());
    }

    #[test]
    fn straightline_has_no_dependences() {
        let (f, cfg, cd) = cdeps("int f(int a) { int b = a + 1; return b; }");
        for (b, _) in f.iter_blocks() {
            assert!(!is_controlled(&cfg, &cd, b));
        }
    }
}
