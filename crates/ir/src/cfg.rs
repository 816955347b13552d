//! Control-flow graph utilities: predecessor maps and traversal orders.

use crate::module::{BlockId, Function, Terminator};

/// Predecessor/successor structure of a function's CFG, plus a cached
/// reverse-postorder.
#[derive(Debug, Clone, Default)]
pub struct Cfg {
    /// `preds.get(b)` = blocks branching to `b`, in ascending order, once
    /// per edge.
    preds: BlockLists,
    /// `succs.get(b)` = targets of `b`'s terminator, in terminator order.
    succs: BlockLists,
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
        let mut cfg = Cfg::default();
        cfg.rebuild(func);
        cfg
    }

    /// Makes this the CFG of `func`, reusing its buffers: a pass over many
    /// functions keeps one `Cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `func` has no blocks.
    pub(crate) fn rebuild(&mut self, func: &Function) {
        assert!(!func.blocks.is_empty(), "cannot build CFG of a prototype");
        self.succs.fill(func.blocks.iter().map(|b| b.terminator.successors()));
        self.succs.transpose_into(func.blocks.len(), &mut self.preds);
        self.order(func.entry());
    }

    /// Makes `rev` the reverse of this CFG, reusing its buffers, for
    /// post-dominators: every edge flipped, plus a virtual exit node
    /// `BlockId(self.len())` with an edge to each reachable block that has
    /// no successors. Its reverse postorder runs from the virtual exit, so
    /// a block "reachable" in the result is one that reaches an exit here.
    /// Blocks unreachable from the entry get no edges.
    pub fn reverse_into(&self, rev: &mut Cfg) {
        let n = self.len();
        let exit = BlockId(n as u32);
        rev.preds.fill((0..n as u32 + 1).map(BlockId).map(|b| {
            let reachable = b != exit && self.is_reachable(b);
            let out = if reachable { self.succs_of(b) } else { &[] };
            out.iter().copied().chain((reachable && out.is_empty()).then_some(exit))
        }));
        rev.preds.transpose_into(n + 1, &mut rev.succs);
        rev.order(exit);
    }

    /// Sets `rpo` and `rpo_index` from a depth-first walk of `succs` from
    /// `root`, with no buffer besides those two.
    fn order(&mut self, root: BlockId) {
        // During the walk, `rpo_index` holds each visited block's next
        // successor to try, and `rpo` holds the postorder so far at its
        // front and the DFS stack at its back, top of stack lowest. A block
        // is on the stack or finished, never both, so the two never meet.
        const UNSEEN: usize = usize::MAX;
        let n = self.succs.len();
        self.rpo_index.clear();
        self.rpo_index.resize(n, UNSEEN);
        self.rpo.clear();
        self.rpo.resize(n, root);
        let (mut done, mut top) = (0, n - 1);
        self.rpo_index[root.0 as usize] = 0;
        while top < n {
            let b = self.rpo[top];
            let i = self.rpo_index[b.0 as usize];
            match self.succs.get(b).get(i) {
                Some(&next) => {
                    self.rpo_index[b.0 as usize] = i + 1;
                    if self.rpo_index[next.0 as usize] == UNSEEN {
                        self.rpo_index[next.0 as usize] = 0;
                        top -= 1;
                        self.rpo[top] = next;
                    }
                }
                None => {
                    top += 1;
                    self.rpo[done] = b;
                    done += 1;
                }
            }
        }
        self.rpo.truncate(done);
        self.rpo.reverse();
        for (i, b) in self.rpo.iter().enumerate() {
            self.rpo_index[b.0 as usize] = i;
        }
    }

    /// Whether `b` is reachable from the entry.
    pub fn is_reachable(&self, b: BlockId) -> bool {
        self.rpo_index[b.0 as usize] != usize::MAX
    }

    /// Whether the blocks reachable from the entry contain a cycle: some
    /// edge out of a reachable block leads back to that block or to one
    /// before it in reverse postorder. Without one, a walk in reverse
    /// postorder meets every block after all of its reachable predecessors.
    pub fn has_back_edge(&self) -> bool {
        self.rpo
            .iter()
            .enumerate()
            .any(|(at, &b)| self.succs_of(b).iter().any(|s| self.rpo_index[s.0 as usize] <= at))
    }

    /// The order a forward pass walks `func`'s body in, and whether one pass
    /// reaches the fixpoint. The order is reverse postorder, then the
    /// unreachable blocks in index order, less the empty `Unreachable` stubs
    /// that SSA leaves of dead blocks, which add no fact. With no back edge and
    /// no unreachable block left, every operand, φ predecessor and
    /// controlling branch comes before its readers. `func` is this CFG's.
    pub fn body_walk<'a>(
        &'a self,
        func: &'a Function,
    ) -> (impl Iterator<Item = BlockId> + Clone + 'a, bool) {
        let unreachable = (0..self.len() as u32).map(BlockId).filter(move |&b| {
            let block = func.block(b);
            !self.is_reachable(b)
                && (!block.insts.is_empty() || block.terminator != Terminator::Unreachable)
        });
        let one_pass = !self.has_back_edge() && unreachable.clone().next().is_none();
        (self.rpo.iter().copied().chain(unreachable), one_pass)
    }

    /// Predecessors of `b`.
    pub fn preds_of(&self, b: BlockId) -> &[BlockId] {
        self.preds.get(b)
    }

    /// Successors of `b`.
    pub fn succs_of(&self, b: BlockId) -> &[BlockId] {
        self.succs.get(b)
    }

    /// Number of blocks (including unreachable ones).
    pub fn len(&self) -> usize {
        self.preds.len()
    }

    /// Whether the CFG has no blocks (never true for built CFGs).
    pub fn is_empty(&self) -> bool {
        self.preds.len() == 0
    }
}

/// One list of blocks per block, stored back to back in a single array:
/// the list of `b` is `items[start[b]..start[b + 1]]`. Two allocations
/// per CFG direction, dominator tree or frontier set, however many blocks.
#[derive(Debug, Clone, Default)]
pub(crate) struct BlockLists {
    start: Vec<u32>,
    items: Vec<BlockId>,
}

impl BlockLists {
    /// Refills with one list per item of `lists`, in order. `lists` runs
    /// twice, once to size the buffers exactly and once to fill them.
    pub(crate) fn fill<L: IntoIterator<Item = BlockId>>(
        &mut self,
        lists: impl Iterator<Item = L> + Clone,
    ) {
        self.start.clear();
        self.items.clear();
        self.start.reserve(lists.size_hint().0 + 1);
        self.items.reserve(lists.clone().map(|l| l.into_iter().count()).sum());
        self.start.push(0);
        for list in lists {
            self.items.extend(list);
            self.start.push(self.items.len() as u32);
        }
    }

    /// Refills with the `(owner, item)` pairs that `edges` passes to its
    /// argument, grouped into one list per owner among `n` blocks and kept
    /// in order within each list. `edges` runs twice, once to count and
    /// once to fill, and must pass the same pairs both times.
    pub(crate) fn group(&mut self, n: usize, edges: impl Fn(&mut dyn FnMut(BlockId, BlockId))) {
        let start = &mut self.start;
        start.clear();
        start.resize(n + 1, 0);
        edges(&mut |owner, _| start[owner.0 as usize + 1] += 1);
        for i in 0..n {
            start[i + 1] += start[i];
        }
        // Fill through `start[owner]` as a cursor; each cursor ends where
        // the next list begins, so shifting by one restores the starts.
        let items = &mut self.items;
        items.clear();
        items.resize(start[n] as usize, BlockId(0));
        edges(&mut |owner, item| {
            let cursor = &mut start[owner.0 as usize];
            items[*cursor as usize] = item;
            *cursor += 1;
        });
        start.copy_within(0..n, 1);
        start[0] = 0;
    }

    /// Refills with one list per block among `n`: `list(b, items)` appends
    /// the items of `b`'s list to `items`, in any order and with repeats,
    /// and the list keeps them sorted and once each.
    pub(crate) fn fill_sorted(
        &mut self,
        n: usize,
        mut list: impl FnMut(BlockId, &mut Vec<BlockId>),
    ) {
        self.start.clear();
        self.items.clear();
        self.start.reserve(n + 1);
        self.start.push(0);
        for b in (0..n as u32).map(BlockId) {
            let at = self.items.len();
            list(b, &mut self.items);
            self.items[at..].sort_unstable();
            let mut kept = at;
            for i in at..self.items.len() {
                if kept == at || self.items[i] != self.items[kept - 1] {
                    self.items[kept] = self.items[i];
                    kept += 1;
                }
            }
            self.items.truncate(kept);
            self.start.push(kept as u32);
        }
    }

    /// Refills `out` with these lists with every `(owner, item)` pair
    /// flipped, over `n` blocks: each new list is in ascending order of the
    /// old owners.
    pub(crate) fn transpose_into(&self, n: usize, out: &mut BlockLists) {
        out.group(n, |add| {
            for b in (0..self.len() as u32).map(BlockId) {
                self.get(b).iter().for_each(|&item| add(item, b));
            }
        });
    }

    /// The list of `b`.
    pub(crate) fn get(&self, b: BlockId) -> &[BlockId] {
        let i = b.0 as usize;
        &self.items[self.start[i] as usize..self.start[i + 1] as usize]
    }

    /// Number of lists.
    pub(crate) fn len(&self) -> usize {
        self.start.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::{BasicBlock, Function, Terminator, Value};
    use crate::types::Type;
    use safeflow_syntax::span::Span;

    fn block(name: &'static str, term: Terminator) -> BasicBlock {
        BasicBlock { insts: vec![], terminator: term, name: name.into() }
    }

    fn func_with_blocks(blocks: Vec<BasicBlock>) -> Function {
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
        assert!(!cfg.has_back_edge());
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
        assert!(cfg.has_back_edge());
    }

    #[test]
    fn body_walk_skips_dead_stubs_but_not_dead_blocks() {
        // 0 -> 2, 1; 1 -> 3; 2 -> 3; 3 ret; 4 an empty dead stub.
        let mut blocks = vec![
            block(
                "entry",
                Terminator::CondBr {
                    cond: Value::i32(1),
                    then_bb: BlockId(2),
                    else_bb: BlockId(1),
                },
            ),
            block("else", Terminator::Br(BlockId(3))),
            block("then", Terminator::Br(BlockId(3))),
            block("join", Terminator::Ret(None)),
            block("stub", Terminator::Unreachable),
        ];
        let f = func_with_blocks(blocks.clone());
        let cfg = Cfg::build(&f);
        let (walk, one_pass) = cfg.body_walk(&f);
        assert_eq!(walk.collect::<Vec<_>>(), cfg.rpo);
        assert!(one_pass);
        // A dead block that returns can add facts: it is walked last, and
        // the body takes more than one pass.
        blocks[4].terminator = Terminator::Ret(None);
        let f = func_with_blocks(blocks);
        let cfg = Cfg::build(&f);
        let (walk, one_pass) = cfg.body_walk(&f);
        let walk: Vec<BlockId> = walk.collect();
        assert_eq!(walk[..4], cfg.rpo[..]);
        assert_eq!(walk[4..], [BlockId(4)]);
        assert!(!one_pass);
    }

    #[test]
    fn self_loop_is_a_back_edge_but_a_dead_one_is_not() {
        let spin = func_with_blocks(vec![block("entry", Terminator::Br(BlockId(0)))]);
        assert!(Cfg::build(&spin).has_back_edge());
        // The cycle 1 -> 2 -> 1 is unreachable from the entry.
        let dead = func_with_blocks(vec![
            block("entry", Terminator::Ret(None)),
            block("a", Terminator::Br(BlockId(2))),
            block("b", Terminator::Br(BlockId(1))),
        ]);
        assert!(!Cfg::build(&dead).has_back_edge());
    }
}
