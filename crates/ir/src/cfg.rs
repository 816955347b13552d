//! Control-flow graph utilities: predecessor maps and traversal orders.

use crate::module::{BlockId, Function};

/// Predecessor/successor structure of a function's CFG, plus a cached
/// reverse-postorder.
#[derive(Debug, Clone)]
pub struct Cfg {
    /// `preds[b]` = blocks branching to `b`.
    pub preds: Vec<Vec<BlockId>>,
    /// `succs[b]` = targets of `b`'s terminator.
    pub succs: Vec<Vec<BlockId>>,
    /// Blocks in reverse postorder from the entry (unreachable blocks are
    /// excluded).
    pub rpo: Vec<BlockId>,
    /// `rpo_index[b]` = position of `b` in `rpo`, or `usize::MAX` if
    /// unreachable.
    pub rpo_index: Vec<usize>,
}

impl Cfg {
    /// Computes the CFG of `func`.
    ///
    /// # Panics
    ///
    /// Panics if `func` has no blocks (prototypes have no CFG).
    pub fn build(func: &Function) -> Cfg {
        assert!(!func.blocks.is_empty(), "cannot build CFG of a prototype");
        let n = func.blocks.len();
        let mut preds = vec![Vec::new(); n];
        let mut succs = vec![Vec::new(); n];
        for (bid, block) in func.iter_blocks() {
            for succ in block.terminator.successors() {
                succs[bid.0 as usize].push(succ);
                preds[succ.0 as usize].push(bid);
            }
        }
        Cfg::ordered_from(preds, succs, func.entry())
    }

    /// The reverse of this CFG, for post-dominators: every edge flipped,
    /// plus a virtual exit node `BlockId(self.len())` with an edge to each
    /// reachable block that has no successors. Its reverse postorder runs
    /// from the virtual exit, so a block "reachable" in the result is one
    /// that reaches an exit here. Blocks unreachable from the entry get no
    /// edges.
    pub(crate) fn reverse(&self) -> Cfg {
        let n = self.len();
        let exit = BlockId(n as u32);
        let mut preds = vec![Vec::new(); n + 1];
        let mut succs = vec![Vec::new(); n + 1];
        for (b, out) in self.succs.iter().enumerate() {
            let bid = BlockId(b as u32);
            if !self.is_reachable(bid) {
                continue;
            }
            for &s in out {
                succs[s.0 as usize].push(bid);
                preds[b].push(s);
            }
            if out.is_empty() {
                succs[n].push(bid);
                preds[b].push(exit);
            }
        }
        Cfg::ordered_from(preds, succs, exit)
    }

    /// Completes a CFG with the reverse postorder of a depth-first walk from
    /// `root`.
    fn ordered_from(preds: Vec<Vec<BlockId>>, succs: Vec<Vec<BlockId>>, root: BlockId) -> Cfg {
        let n = succs.len();
        let mut post = Vec::with_capacity(n);
        let mut visited = vec![false; n];
        let mut stack: Vec<(BlockId, usize)> = vec![(root, 0)];
        visited[root.0 as usize] = true;
        while let Some(&mut (b, ref mut i)) = stack.last_mut() {
            let ss = &succs[b.0 as usize];
            if *i < ss.len() {
                let next = ss[*i];
                *i += 1;
                if !visited[next.0 as usize] {
                    visited[next.0 as usize] = true;
                    stack.push((next, 0));
                }
            } else {
                post.push(b);
                stack.pop();
            }
        }
        let mut rpo = post;
        rpo.reverse();
        let mut rpo_index = vec![usize::MAX; n];
        for (i, b) in rpo.iter().enumerate() {
            rpo_index[b.0 as usize] = i;
        }
        Cfg { preds, succs, rpo, rpo_index }
    }

    /// Whether `b` is reachable from the entry.
    pub fn is_reachable(&self, b: BlockId) -> bool {
        self.rpo_index[b.0 as usize] != usize::MAX
    }

    /// Predecessors of `b`.
    pub fn preds_of(&self, b: BlockId) -> &[BlockId] {
        &self.preds[b.0 as usize]
    }

    /// Successors of `b`.
    pub fn succs_of(&self, b: BlockId) -> &[BlockId] {
        &self.succs[b.0 as usize]
    }

    /// Number of blocks (including unreachable ones).
    pub fn len(&self) -> usize {
        self.preds.len()
    }

    /// Whether the CFG has no blocks (never true for built CFGs).
    pub fn is_empty(&self) -> bool {
        self.preds.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::{BasicBlock, Function, Terminator, Value};
    use crate::types::Type;
    use safeflow_syntax::span::Span;

    fn block(name: &str, term: Terminator) -> BasicBlock {
        BasicBlock { insts: vec![], terminator: term, name: name.into() }
    }

    fn func_with_blocks(blocks: Vec<BasicBlock>) -> Function {
        Function {
            name: "t".into(),
            ret: Type::Void,
            params: vec![],
            varargs: false,
            insts: vec![],
            blocks,
            annotations: vec![],
            is_definition: true,
            span: Span::dummy(),
        }
    }

    #[test]
    fn diamond_cfg() {
        // 0 -> 1, 2; 1 -> 3; 2 -> 3; 3 ret
        let f = func_with_blocks(vec![
            block(
                "entry",
                Terminator::CondBr {
                    cond: Value::i32(1),
                    then_bb: BlockId(1),
                    else_bb: BlockId(2),
                },
            ),
            block("then", Terminator::Br(BlockId(3))),
            block("else", Terminator::Br(BlockId(3))),
            block("join", Terminator::Ret(None)),
        ]);
        let cfg = Cfg::build(&f);
        assert_eq!(cfg.preds_of(BlockId(3)), &[BlockId(1), BlockId(2)]);
        assert_eq!(cfg.succs_of(BlockId(0)), &[BlockId(1), BlockId(2)]);
        assert_eq!(cfg.rpo[0], BlockId(0));
        assert_eq!(*cfg.rpo.last().unwrap(), BlockId(3));
        assert!(cfg.is_reachable(BlockId(2)));
    }

    #[test]
    fn unreachable_block_excluded_from_rpo() {
        let f = func_with_blocks(vec![
            block("entry", Terminator::Ret(None)),
            block("dead", Terminator::Ret(None)),
        ]);
        let cfg = Cfg::build(&f);
        assert_eq!(cfg.rpo, vec![BlockId(0)]);
        assert!(!cfg.is_reachable(BlockId(1)));
    }

    #[test]
    fn loop_cfg_rpo_orders_header_first() {
        // 0 -> 1; 1 -> 2, 3; 2 -> 1; 3 ret   (while loop)
        let f = func_with_blocks(vec![
            block("entry", Terminator::Br(BlockId(1))),
            block(
                "cond",
                Terminator::CondBr {
                    cond: Value::i32(1),
                    then_bb: BlockId(2),
                    else_bb: BlockId(3),
                },
            ),
            block("body", Terminator::Br(BlockId(1))),
            block("exit", Terminator::Ret(None)),
        ]);
        let cfg = Cfg::build(&f);
        let pos = |b: u32| cfg.rpo_index[b as usize];
        assert!(pos(0) < pos(1));
        assert!(pos(1) < pos(2));
        assert_eq!(cfg.preds_of(BlockId(1)).len(), 2);
    }
}
