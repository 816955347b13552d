//! Dominators and post-dominators by one Cooper–Harvey–Kennedy core:
//! dominators of the forward CFG serve SSA construction and loop
//! detection, dominators of the reverse CFG (post-dominators) serve
//! control dependence. Dominance frontiers live with their one consumer,
//! φ placement in [`crate::ssa`].

use crate::cfg::{BlockLists, Cfg};
use crate::module::BlockId;

/// Dominator tree over a function's CFG.
#[derive(Debug, Clone, Default)]
pub struct DomTree {
    /// `idom[b]` = immediate dominator of `b`; entry's idom is itself;
    /// `None` for unreachable blocks.
    pub idom: Vec<Option<BlockId>>,
    /// Children in the dominator tree, each list in ascending order.
    children: BlockLists,
}

impl DomTree {
    /// Computes the dominators of `cfg`.
    pub fn build(cfg: &Cfg) -> DomTree {
        let mut dom = DomTree::default();
        dom.rebuild(cfg);
        dom
    }

    /// Makes this the dominator tree of `cfg`, reusing its buffers.
    pub(crate) fn rebuild(&mut self, cfg: &Cfg) {
        immediate_dominators(cfg, &mut self.idom);
        let idom = &self.idom;
        self.children.group(cfg.len(), |add| {
            for (b, d) in idom.iter().enumerate() {
                match *d {
                    Some(d) if d.0 as usize != b => add(d, BlockId(b as u32)),
                    _ => {}
                }
            }
        });
    }

    /// The blocks `b` immediately dominates, in ascending order.
    pub fn children(&self, b: BlockId) -> &[BlockId] {
        self.children.get(b)
    }

    /// Whether `a` dominates `b` (reflexive).
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        is_ancestor(&self.idom, a, b)
    }

    /// The immediate dominator of `b` (`None` for the entry and unreachable
    /// blocks).
    pub fn immediate_dominator(&self, b: BlockId) -> Option<BlockId> {
        match self.idom[b.0 as usize] {
            Some(d) if d != b => Some(d),
            _ => None,
        }
    }
}

/// Post-dominator tree: the dominators of the reverse CFG, rooted at a
/// virtual exit that every returning block flows into.
///
/// Required by control dependence (paper §3.3: errors are reported when
/// critical data is *control* dependent on unsafe values).
#[derive(Debug, Clone, Default)]
pub struct PostDomTree {
    /// The reverse CFG these are the dominators of, kept so that a rebuild
    /// reuses its buffers.
    rev: Cfg,
    /// `ipdom[b]` = immediate post-dominator of block `b`; `None` for
    /// blocks that cannot reach an exit. The last entry is the virtual
    /// exit, its own immediate post-dominator.
    ipdom: Vec<Option<BlockId>>,
}

impl PostDomTree {
    /// Computes the post-dominators of `cfg`.
    pub fn build(cfg: &Cfg) -> PostDomTree {
        let mut pdom = PostDomTree::default();
        pdom.rebuild(cfg);
        pdom
    }

    /// Makes this the post-dominator tree of `cfg`, reusing its buffers: a
    /// pass over many functions keeps one `PostDomTree`.
    pub fn rebuild(&mut self, cfg: &Cfg) {
        cfg.reverse_into(&mut self.rev);
        immediate_dominators(&self.rev, &mut self.ipdom);
    }

    /// The virtual exit, `BlockId(n)` for a CFG of `n` blocks.
    pub fn virtual_exit(&self) -> BlockId {
        BlockId(self.ipdom.len() as u32 - 1)
    }

    /// Immediate post-dominator of `b`: a block, the
    /// [virtual exit](Self::virtual_exit), or `None` when `b` cannot reach
    /// an exit.
    pub fn immediate(&self, b: BlockId) -> Option<BlockId> {
        self.ipdom[b.0 as usize]
    }

    /// Whether `a` post-dominates `b` (reflexive). Only the virtual exit
    /// post-dominates a block that cannot reach an exit.
    pub fn post_dominates(&self, a: BlockId, b: BlockId) -> bool {
        is_ancestor(&self.ipdom, a, b)
    }
}

/// Sets `idom` to the immediate dominators over `cfg`'s reverse postorder
/// (Cooper, Harvey, Kennedy: "A Simple, Fast Dominance Algorithm"). The
/// root, `cfg.rpo[0]`, is its own immediate dominator; blocks outside
/// `cfg.rpo` get `None`.
fn immediate_dominators(cfg: &Cfg, idom: &mut Vec<Option<BlockId>>) {
    idom.clear();
    idom.resize(cfg.len(), None);
    let Some(&root) = cfg.rpo.first() else { return };
    idom[root.0 as usize] = Some(root);
    let mut changed = true;
    while changed {
        changed = false;
        for &b in cfg.rpo.iter().skip(1) {
            let mut new_idom: Option<BlockId> = None;
            for &p in cfg.preds_of(b) {
                if idom[p.0 as usize].is_none() {
                    continue; // predecessor not yet processed / unreachable
                }
                new_idom = Some(match new_idom {
                    None => p,
                    Some(cur) => intersect(idom, &cfg.rpo_index, p, cur),
                });
            }
            if let Some(ni) = new_idom {
                if idom[b.0 as usize] != Some(ni) {
                    idom[b.0 as usize] = Some(ni);
                    changed = true;
                }
            }
        }
    }
}

fn intersect(
    idom: &[Option<BlockId>],
    rpo_index: &[usize],
    mut a: BlockId,
    mut b: BlockId,
) -> BlockId {
    while a != b {
        while rpo_index[a.0 as usize] > rpo_index[b.0 as usize] {
            a = idom[a.0 as usize].expect("processed block has idom");
        }
        while rpo_index[b.0 as usize] > rpo_index[a.0 as usize] {
            b = idom[b.0 as usize].expect("processed block has idom");
        }
    }
    a
}

/// Whether `a` is `b` or an ancestor of `b` in the tree `idom`.
fn is_ancestor(idom: &[Option<BlockId>], a: BlockId, mut b: BlockId) -> bool {
    loop {
        if b == a {
            return true;
        }
        match idom[b.0 as usize] {
            Some(d) if d != b => b = d,
            _ => return false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build_module;
    use crate::module::{BasicBlock, Function, Terminator, Value};
    use crate::types::Type;
    use safeflow_syntax::diag::Diagnostics;
    use safeflow_syntax::parse_source;
    use safeflow_syntax::span::Span;

    fn block(term: Terminator) -> BasicBlock {
        BasicBlock { insts: vec![], terminator: term, name: "".into() }
    }

    fn func(blocks: Vec<BasicBlock>) -> Function {
        Function {
            name: "t".into(),
            ret: Type::VOID,
            params: vec![],
            varargs: false,
            insts: vec![],
            blocks,
            annotations: vec![],
            is_definition: true,
            span: Span::dummy(),
        }
    }

    fn diamond() -> Function {
        func(vec![
            block(Terminator::CondBr {
                cond: Value::i32(1),
                then_bb: BlockId(1),
                else_bb: BlockId(2),
            }),
            block(Terminator::Br(BlockId(3))),
            block(Terminator::Br(BlockId(3))),
            block(Terminator::Ret(None)),
        ])
    }

    #[test]
    fn diamond_dominators() {
        let f = diamond();
        let cfg = Cfg::build(&f);
        let dom = DomTree::build(&cfg);
        assert_eq!(dom.immediate_dominator(BlockId(1)), Some(BlockId(0)));
        assert_eq!(dom.immediate_dominator(BlockId(2)), Some(BlockId(0)));
        // The join is dominated by the entry, not by either arm.
        assert_eq!(dom.immediate_dominator(BlockId(3)), Some(BlockId(0)));
        assert!(dom.dominates(BlockId(0), BlockId(3)));
        assert!(!dom.dominates(BlockId(1), BlockId(3)));
        assert!(dom.dominates(BlockId(3), BlockId(3)));
    }

    #[test]
    fn loop_header_dominates_body_and_exit() {
        // entry(0) -> cond(1); cond -> body(2), exit(3); body -> cond.
        let f = func(vec![
            block(Terminator::Br(BlockId(1))),
            block(Terminator::CondBr {
                cond: Value::i32(1),
                then_bb: BlockId(2),
                else_bb: BlockId(3),
            }),
            block(Terminator::Br(BlockId(1))),
            block(Terminator::Ret(None)),
        ]);
        let cfg = Cfg::build(&f);
        let dom = DomTree::build(&cfg);
        // Header dominates body and exit.
        assert!(dom.dominates(BlockId(1), BlockId(2)));
        assert!(dom.dominates(BlockId(1), BlockId(3)));
    }

    #[test]
    fn children_form_tree() {
        let f = diamond();
        let cfg = Cfg::build(&f);
        let dom = DomTree::build(&cfg);
        assert_eq!(dom.children(BlockId(0)), [BlockId(1), BlockId(2), BlockId(3)]);
        assert!(dom.children(BlockId(3)).is_empty());
    }

    #[test]
    fn unreachable_blocks_have_no_idom() {
        let f = func(vec![block(Terminator::Ret(None)), block(Terminator::Ret(None))]);
        let cfg = Cfg::build(&f);
        let dom = DomTree::build(&cfg);
        assert_eq!(dom.immediate_dominator(BlockId(1)), None);
        assert!(!dom.dominates(BlockId(0), BlockId(1)));
    }

    fn post_dominators(src: &str) -> (Function, Cfg, PostDomTree) {
        let pr = parse_source("t.c", src);
        assert!(!pr.diags.has_errors());
        let m = build_module(&pr.unit, &mut Diagnostics::new());
        let f = m.function(m.function_by_name("f".into()).unwrap()).clone();
        let cfg = Cfg::build(&f);
        let p = PostDomTree::build(&cfg);
        (f, cfg, p)
    }

    #[test]
    fn diamond_join_postdominates_arms() {
        let (f, cfg, p) =
            post_dominators("int f(int x) { int r; if (x) r = 1; else r = 2; return r; }");
        // Find the join (the block with 2 preds).
        let join = f.iter_blocks().map(|(b, _)| b).find(|&b| cfg.preds_of(b).len() == 2).unwrap();
        for &arm in cfg.preds_of(join) {
            assert!(p.post_dominates(join, arm), "join must post-dominate arm {arm}");
        }
        // The arms do not post-dominate the entry.
        for &arm in cfg.preds_of(join) {
            assert!(!p.post_dominates(arm, f.entry()));
        }
        assert!(p.post_dominates(join, f.entry()));
    }

    #[test]
    fn single_block_postdominated_by_exit() {
        let (f, _, p) = post_dominators("int f(void) { return 1; }");
        assert_eq!(p.immediate(f.entry()), Some(p.virtual_exit()));
    }

    #[test]
    fn loop_exit_postdominates_header() {
        let (f, cfg, p) =
            post_dominators("int f(int n) { int s = 0; while (n > 0) { s += n; n--; } return s; }");
        // Exit block = the one with Ret.
        let exit = f
            .iter_blocks()
            .find(|(_, b)| matches!(b.terminator, Terminator::Ret(_)))
            .map(|(b, _)| b)
            .unwrap();
        // Header = the 2-pred block.
        let header = f.iter_blocks().map(|(b, _)| b).find(|&b| cfg.preds_of(b).len() == 2).unwrap();
        assert!(p.post_dominates(exit, header));
        // The loop body does not post-dominate the header.
        let body = cfg.succs_of(header).iter().copied().find(|&b| b != exit).unwrap();
        assert!(!p.post_dominates(body, header));
    }
}
