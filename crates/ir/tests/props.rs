//! Property tests over the IR pipeline: any program our generator emits
//! must lower cleanly, and the result must satisfy the verifier's SSA and
//! CFG invariants — before and after mem2reg.

use safeflow_ir::{
    lower::lower, ssa::promote_module, verify::verify_module, BasicBlock, BlockId, Cfg,
    ControlDeps, DomTree, Function, PostDomTree, Terminator, Type, Value,
};
use safeflow_syntax::diag::Diagnostics;
use safeflow_syntax::parse_source;
use safeflow_syntax::span::Span;
use safeflow_util::prop::{run_cases, Gen};
use std::cell::RefCell;

/// A tiny statement-level program generator: straight-line arithmetic,
/// nested ifs, while loops with bounded shapes, all over a fixed set of
/// int locals.
#[derive(Debug, Clone)]
enum GenStmt {
    Assign(usize, GenExpr),
    If(GenExpr, Vec<GenStmt>, Vec<GenStmt>),
    While(usize, Vec<GenStmt>),
    Return(GenExpr),
}

#[derive(Debug, Clone)]
enum GenExpr {
    Var(usize),
    Const(i32),
    Add(Box<GenExpr>, Box<GenExpr>),
    Mul(Box<GenExpr>, Box<GenExpr>),
    Lt(Box<GenExpr>, Box<GenExpr>),
}

const NVARS: usize = 4;

fn gen_expr(g: &mut Gen, depth: u32) -> GenExpr {
    if depth == 0 || g.chance(0.4) {
        if g.bool() {
            GenExpr::Var(g.usize(0, NVARS))
        } else {
            GenExpr::Const(g.i32(-50, 50))
        }
    } else {
        let a = Box::new(gen_expr(g, depth - 1));
        let b = Box::new(gen_expr(g, depth - 1));
        match g.usize(0, 3) {
            0 => GenExpr::Add(a, b),
            1 => GenExpr::Mul(a, b),
            _ => GenExpr::Lt(a, b),
        }
    }
}

fn gen_stmt(g: &mut Gen, depth: u32) -> GenStmt {
    if depth == 0 {
        if g.chance(0.8) {
            GenStmt::Assign(g.usize(0, NVARS), gen_expr(g, 3))
        } else {
            GenStmt::Return(gen_expr(g, 3))
        }
    } else {
        match g.usize(0, 5) {
            0 => {
                let c = gen_expr(g, 3);
                let t = g.vec_of(1, 3, |g| gen_stmt(g, depth - 1));
                let e = g.vec_of(0, 3, |g| gen_stmt(g, depth - 1));
                GenStmt::If(c, t, e)
            }
            1 => {
                let v = g.usize(0, NVARS);
                let b = g.vec_of(1, 3, |g| gen_stmt(g, depth - 1));
                GenStmt::While(v, b)
            }
            _ => GenStmt::Assign(g.usize(0, NVARS), gen_expr(g, 3)),
        }
    }
}

fn gen_stmts(g: &mut Gen) -> Vec<GenStmt> {
    g.vec_of(1, 8, |g| gen_stmt(g, 2))
}

fn render_expr(e: &GenExpr) -> String {
    match e {
        GenExpr::Var(v) => format!("v{v}"),
        GenExpr::Const(c) => {
            if *c < 0 {
                format!("(0 - {})", -c)
            } else {
                format!("{c}")
            }
        }
        GenExpr::Add(a, b) => format!("({} + {})", render_expr(a), render_expr(b)),
        GenExpr::Mul(a, b) => format!("({} * {})", render_expr(a), render_expr(b)),
        GenExpr::Lt(a, b) => format!("({} < {})", render_expr(a), render_expr(b)),
    }
}

fn render_stmts(stmts: &[GenStmt], indent: usize, out: &mut String) {
    let pad = "    ".repeat(indent);
    for s in stmts {
        match s {
            GenStmt::Assign(v, e) => {
                out.push_str(&format!("{pad}v{v} = {};\n", render_expr(e)));
            }
            GenStmt::If(c, t, e) => {
                out.push_str(&format!("{pad}if ({}) {{\n", render_expr(c)));
                render_stmts(t, indent + 1, out);
                out.push_str(&format!("{pad}}} else {{\n"));
                render_stmts(e, indent + 1, out);
                out.push_str(&format!("{pad}}}\n"));
            }
            GenStmt::While(v, b) => {
                // Bounded loop: counts v down so lowering terminates in
                // finite shape (runtime behaviour is irrelevant here).
                out.push_str(&format!("{pad}while (v{v} > 0) {{\n"));
                out.push_str(&format!("{}v{v} = v{v} - 1;\n", "    ".repeat(indent + 1)));
                render_stmts(b, indent + 1, out);
                out.push_str(&format!("{pad}}}\n"));
            }
            GenStmt::Return(e) => {
                out.push_str(&format!("{pad}return {};\n", render_expr(e)));
            }
        }
    }
}

fn render_program(stmts: &[GenStmt]) -> String {
    let mut out = String::from("int f(int a, int b) {\n");
    for v in 0..NVARS {
        out.push_str(&format!("    int v{v};\n"));
    }
    out.push_str("    v0 = a;\n    v1 = b;\n    v2 = 0;\n    v3 = 1;\n");
    render_stmts(stmts, 1, &mut out);
    out.push_str("    return v0 + v1 + v2 + v3;\n}\n");
    out
}

/// Generated programs lower without diagnostics and verify before and
/// after SSA promotion.
#[test]
fn lower_and_ssa_preserve_invariants() {
    run_cases(128, |g| {
        let stmts = gen_stmts(g);
        let src = render_program(&stmts);
        let parsed = parse_source("gen.c", &src);
        assert!(!parsed.diags.has_errors(), "parse failed on:\n{src}");
        let mut diags = Diagnostics::new();
        let mut module = lower(&parsed.unit, &mut diags);
        assert!(!diags.has_errors(), "lowering failed on:\n{src}");
        let pre = verify_module(&module);
        assert!(pre.is_empty(), "pre-SSA verify failed on:\n{src}\n{pre:?}");
        promote_module(&mut module);
        let post = verify_module(&module);
        assert!(post.is_empty(), "post-SSA verify failed on:\n{src}\n{post:?}");
        // Scalars must be fully promoted.
        for fid in module.definitions() {
            let f = module.function(fid);
            let allocas = f
                .iter_insts()
                .filter(|(_, i)| matches!(i.kind, safeflow_ir::InstKind::Alloca { .. }))
                .count();
            assert_eq!(allocas, 0, "all scalar locals promote on:\n{src}");
        }
    });
}

/// Blocks reachable from `from` along `cfg`'s edges without passing
/// through `removed` (nothing is reachable when `from` is removed).
fn reachable_without(cfg: &Cfg, from: BlockId, removed: BlockId) -> Vec<bool> {
    let mut seen = vec![false; cfg.len()];
    let mut work = vec![from];
    while let Some(b) = work.pop() {
        if b == removed || seen[b.0 as usize] {
            continue;
        }
        seen[b.0 as usize] = true;
        work.extend(cfg.succs_of(b).iter().copied());
    }
    seen
}

/// Whether a path from `from` reaches a block without successors (an
/// exit) while avoiding `removed`.
fn reaches_exit_without(cfg: &Cfg, from: BlockId, removed: BlockId) -> bool {
    let seen = reachable_without(cfg, from, removed);
    cfg.rpo.iter().any(|&b| seen[b.0 as usize] && cfg.succs_of(b).is_empty())
}

/// Dominator and post-dominator facts agree with their definitions on
/// generated CFGs: `a` dominates `b` when `b` is unreachable from the
/// entry once `a` is removed, and `a` post-dominates `b` when no exit is
/// reachable from `b` once `a` is removed. A block that reaches no exit
/// has no post-dominator.
#[test]
fn dominators_consistent() {
    run_cases(128, |g| {
        let stmts = gen_stmts(g);
        let src = render_program(&stmts);
        let parsed = parse_source("gen.c", &src);
        if parsed.diags.has_errors() {
            return;
        }
        let mut diags = Diagnostics::new();
        let mut module = lower(&parsed.unit, &mut diags);
        promote_module(&mut module);
        for fid in module.definitions() {
            let f = module.function(fid);
            if f.blocks.is_empty() {
                continue;
            }
            let cfg = Cfg::build(f);
            let dom = DomTree::build(&cfg);
            let pdom = PostDomTree::build(&cfg);
            // idom is a strict ancestor in RPO.
            for &b in &cfg.rpo {
                if let Some(d) = dom.immediate_dominator(b) {
                    assert!(
                        cfg.rpo_index[d.0 as usize] < cfg.rpo_index[b.0 as usize],
                        "idom must precede in RPO"
                    );
                }
            }
            let no_block = BlockId(cfg.len() as u32);
            for &b in &cfg.rpo {
                let reaches_exit = reaches_exit_without(&cfg, b, no_block);
                assert_eq!(pdom.immediate(b).is_some(), reaches_exit, "ipdom of {b} on:\n{src}");
            }
            for &a in &cfg.rpo {
                let from_entry = reachable_without(&cfg, f.entry(), a);
                for &b in &cfg.rpo {
                    assert_eq!(
                        dom.dominates(a, b),
                        !from_entry[b.0 as usize],
                        "dominates({a}, {b}) on:\n{src}"
                    );
                    let expected = a == b
                        || (reaches_exit_without(&cfg, b, no_block)
                            && !reaches_exit_without(&cfg, b, a));
                    assert_eq!(
                        pdom.post_dominates(a, b),
                        expected,
                        "post_dominates({a}, {b}) on:\n{src}"
                    );
                }
            }
        }
    });
}

/// A function of 1 to 12 blocks with random terminators: branches,
/// two-way branches, switches whose arms may share a target (duplicate
/// edges), returns and unreachable stubs, so some blocks are unreachable
/// and some reach no exit.
fn gen_cfg_function(g: &mut Gen) -> Function {
    let n = g.usize(1, 13);
    let target = |g: &mut Gen| BlockId(g.usize(0, n) as u32);
    let blocks = (0..n)
        .map(|_| {
            let terminator = match g.usize(0, 5) {
                0 => Terminator::Br(target(g)),
                1 => Terminator::CondBr {
                    cond: Value::i32(1),
                    then_bb: target(g),
                    else_bb: target(g),
                },
                2 => Terminator::Switch {
                    value: Value::i32(0),
                    cases: (0..g.usize(0, 4)).map(|c| (c as i64, target(g))).collect(),
                    default: target(g),
                },
                3 => Terminator::Ret(None),
                _ => Terminator::Unreachable,
            };
            BasicBlock { insts: vec![], terminator, name: "".into() }
        })
        .collect();
    Function {
        name: "f".into(),
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

/// Reverse postorder of a recursive depth-first walk of `succs_of` from
/// `root`, successors in order.
fn naive_rpo(root: BlockId, n: usize, succs_of: impl Fn(BlockId) -> Vec<BlockId>) -> Vec<BlockId> {
    fn visit(
        b: BlockId,
        seen: &mut [bool],
        post: &mut Vec<BlockId>,
        succs_of: &dyn Fn(BlockId) -> Vec<BlockId>,
    ) {
        seen[b.0 as usize] = true;
        for s in succs_of(b) {
            if !seen[s.0 as usize] {
                visit(s, seen, post, succs_of);
            }
        }
        post.push(b);
    }
    let mut post = Vec::new();
    visit(root, &mut vec![false; n], &mut post, &succs_of);
    post.reverse();
    post
}

/// The flat CFG and dominator-tree layout hold exactly the lists a naive
/// edge-list construction gives, element for element: successors in
/// terminator order, predecessors in ascending order once per edge (a
/// switch's duplicate arms included), reverse postorders as a recursive
/// walk visits them, the reverse CFG as post-dominators see it, and each
/// block's dominator-tree children as the grouping of `idom`. The reverse
/// CFG is built into one buffer reused across cases, so a rebuild over a
/// larger or smaller graph must leave nothing behind.
#[test]
fn cfg_layout_matches_naive_edge_lists() {
    let rev = RefCell::new(Cfg::default());
    run_cases(256, |g| {
        let f = gen_cfg_function(g);
        let n = f.blocks.len();
        let cfg = Cfg::build(&f);
        let rpo = naive_rpo(f.entry(), n, |b| cfg.succs_of(b).to_vec());
        assert_eq!(cfg.rpo, rpo, "rpo of {f:?}");
        for b in (0..n as u32).map(BlockId) {
            let at = rpo.iter().position(|&r| r == b).unwrap_or(usize::MAX);
            assert_eq!(cfg.rpo_index[b.0 as usize], at, "rpo index of {b} in {f:?}");
        }

        let succs: Vec<Vec<BlockId>> =
            f.blocks.iter().map(|b| b.terminator.successors().collect()).collect();
        let mut preds = vec![Vec::new(); n];
        for (b, out) in succs.iter().enumerate() {
            for s in out {
                preds[s.0 as usize].push(BlockId(b as u32));
            }
        }
        for b in (0..n as u32).map(BlockId) {
            assert_eq!(cfg.succs_of(b), succs[b.0 as usize], "succs of {b} in {f:?}");
            assert_eq!(cfg.preds_of(b), preds[b.0 as usize], "preds of {b} in {f:?}");
        }

        // The reverse CFG: every edge out of a reachable block flipped,
        // and a virtual exit `n` branching to each reachable block without
        // successors.
        let exit = BlockId(n as u32);
        let mut rev_succs = vec![Vec::new(); n + 1];
        let mut rev_preds = vec![Vec::new(); n + 1];
        for (b, out) in succs.iter().enumerate() {
            let bid = BlockId(b as u32);
            if !cfg.is_reachable(bid) {
                continue;
            }
            for &s in out {
                rev_succs[s.0 as usize].push(bid);
                rev_preds[b].push(s);
            }
            if out.is_empty() {
                rev_succs[n].push(bid);
                rev_preds[b].push(exit);
            }
        }
        let rev = &mut *rev.borrow_mut();
        cfg.reverse_into(rev);
        assert_eq!(rev.len(), n + 1);
        assert_eq!(rev.rpo, naive_rpo(exit, n + 1, |b| rev.succs_of(b).to_vec()));
        for b in (0..=n as u32).map(BlockId) {
            assert_eq!(rev.succs_of(b), rev_succs[b.0 as usize], "reverse succs of {b} in {f:?}");
            assert_eq!(rev.preds_of(b), rev_preds[b.0 as usize], "reverse preds of {b} in {f:?}");
        }

        let dom = DomTree::build(&cfg);
        let mut children = vec![Vec::new(); n];
        for (b, d) in dom.idom.iter().enumerate() {
            match *d {
                Some(d) if d.0 as usize != b => children[d.0 as usize].push(BlockId(b as u32)),
                _ => {}
            }
        }
        for b in (0..n as u32).map(BlockId) {
            assert_eq!(dom.children(b), children[b.0 as usize], "children of {b} in {f:?}");
        }
    });
}

/// The flat control dependence equals its definition on generated CFGs
/// with unreachable blocks, self loops and duplicate switch edges: `b`
/// depends on a reachable branch block `a` when `b` post-dominates some
/// successor of `a` but does not strictly post-dominate `a`. The reference
/// asks a fresh [`PostDomTree`] about every pair; the flat one is rebuilt
/// into buffers reused across cases.
#[test]
fn control_deps_match_post_dominator_definition() {
    let reused = RefCell::new((ControlDeps::default(), PostDomTree::default()));
    run_cases(512, |g| {
        let f = gen_cfg_function(g);
        let n = f.blocks.len();
        let cfg = Cfg::build(&f);
        let pdom = PostDomTree::build(&cfg);
        let (cd, scratch) = &mut *reused.borrow_mut();
        cd.rebuild(&cfg, scratch);
        for a in (0..n as u32).map(BlockId) {
            let succs = cfg.succs_of(a);
            let expected: Vec<BlockId> = (0..n as u32)
                .map(BlockId)
                .filter(|&b| {
                    cfg.is_reachable(a)
                        && succs.len() >= 2
                        && succs.iter().any(|&s| pdom.post_dominates(b, s))
                        && (b == a || !pdom.post_dominates(b, a))
                })
                .collect();
            assert_eq!(cd.controlled_by(a), expected, "blocks controlled by {a} in {f:?}");
            assert_eq!(ControlDeps::build(&cfg).controlled_by(a), expected, "fresh build, {a}");
        }
    });
}
