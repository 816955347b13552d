//! Lowering from the C AST to the typed IR.
//!
//! Two passes over the translation unit:
//!
//! 1. **Declarations**: struct layouts, enum constants, typedefs, globals,
//!    and function signatures are registered so that forward references
//!    resolve and every direct call site can be bound to a [`FuncId`].
//! 2. **Bodies**: each function body is lowered to a CFG. All locals start
//!    as `Alloca` slots; [`crate::ssa::promote_module`] later promotes the
//!    address-never-taken scalars to φ-joined SSA values.
//!
//! `assert(safe(x))` annotations lower to [`InstKind::AssertSafe`] anchors;
//! function-level annotations are copied onto the [`Function`].

use crate::module::*;
use crate::types::{Type, TypeKind, TypeTable};
use safeflow_syntax::annot::Annotation;
use safeflow_syntax::ast;
use safeflow_syntax::ast::{TypeExprKind, UnOp};
use safeflow_syntax::diag::Diagnostics;
use safeflow_syntax::span::Span;
use safeflow_util::Symbol;
use std::borrow::Cow;

/// Lowers a parsed translation unit to an IR module.
///
/// Errors (unknown types, bad constants, unsupported constructs) are
/// reported to `diags`; lowering is best-effort so later phases can still
/// run on the rest of the program.
pub fn lower(unit: &ast::TranslationUnit, diags: &mut Diagnostics) -> Module {
    let mut lw = Lowerer {
        module: Module::new(),
        ast: &unit.ast,
        diags,
        str_counter: 0,
        bufs: BodyBuffers::default(),
    };
    lw.register_declarations(unit);
    lw.lower_bodies(unit);
    lw.module
}

struct Lowerer<'u, 'd> {
    module: Module,
    /// Node arena of the unit being lowered.
    ast: &'u ast::Ast,
    diags: &'d mut Diagnostics,
    str_counter: u32,
    /// Buffers each function body is lowered into, kept for the next one.
    bufs: BodyBuffers,
}

/// The growable state of one function body's lowering. A body is built
/// here and then moved into vectors of its exact size, so the function's
/// own vectors are allocated once instead of grown by doubling.
#[derive(Default)]
struct BodyBuffers {
    insts: Vec<Inst>,
    /// The blocks, with empty instruction lists until the body is done.
    blocks: Vec<BasicBlock>,
    /// The block each instruction was emitted into, by `InstId`.
    inst_block: Vec<BlockId>,
    /// Locals in scope, innermost last.
    locals: Vec<(Symbol, LocalSlot)>,
    /// Where each open scope starts in `locals`.
    scopes: Vec<usize>,
    /// Per block, how many instructions it holds.
    block_len: Vec<u32>,
}

impl BodyBuffers {
    /// Moves a finished body into `func`, leaving the buffers empty. Each
    /// block lists its instructions in emission order, as if they had been
    /// pushed one by one; the arena leaves room for the φs SSA adds (6% of
    /// the instructions on the benchmark corpus).
    fn finish_into(&mut self, func: &mut Function) {
        self.block_len.clear();
        self.block_len.resize(self.blocks.len(), 0);
        for b in &self.inst_block {
            self.block_len[b.0 as usize] += 1;
        }
        for (block, &len) in self.blocks.iter_mut().zip(&self.block_len) {
            block.insts = Vec::with_capacity(len as usize);
        }
        for (i, b) in self.inst_block.drain(..).enumerate() {
            self.blocks[b.0 as usize].insts.push(InstId(i as u32));
        }
        let n = self.insts.len();
        func.insts = Vec::with_capacity(n + n / 8 + 4);
        func.insts.append(&mut self.insts);
        func.blocks = self.blocks.drain(..).collect();
        self.locals.clear();
        self.scopes.clear();
    }
}

impl<'u, 'd> Lowerer<'u, 'd> {
    // ---- pass 1: declarations ------------------------------------------

    fn register_declarations(&mut self, unit: &ast::TranslationUnit) {
        for item in &unit.items {
            match item {
                ast::Item::Struct(s) => {
                    // Declare first so self-referential pointers resolve.
                    self.module.types.declare_struct(s.name, s.is_union);
                    let fields: Vec<(Symbol, Type)> =
                        s.fields.iter().map(|f| (f.name, self.resolve_type(f.ty))).collect();
                    self.module.types.define_struct(s.name, fields, s.is_union);
                }
                ast::Item::Enum(e) => {
                    let mut next = 0i64;
                    for (name, value, span) in &e.variants {
                        let v = match value {
                            Some(expr) => match self.const_eval(*expr) {
                                Some(v) => v,
                                None => {
                                    self.diags.error(
                                        *span,
                                        format!("enumerator `{name}` is not a constant expression"),
                                    );
                                    next
                                }
                            },
                            None => next,
                        };
                        self.module.enum_consts.insert(*name, v);
                        next = v + 1;
                    }
                }
                ast::Item::Typedef(t) => {
                    let ty = self.resolve_type(t.ty);
                    self.module.typedefs.insert(t.name, ty);
                }
                ast::Item::Global(g) => {
                    let ty = self.resolve_type(g.ty);
                    self.module.add_global(Global {
                        name: g.name,
                        ty,
                        has_init: g.init.is_some(),
                        span: g.span,
                    });
                }
                ast::Item::Func(f) => {
                    let ret = self.resolve_type(f.ret);
                    let params = f
                        .params
                        .iter()
                        .map(|p| IrParam { name: p.name, ty: self.resolve_type(p.ty) })
                        .collect();
                    self.module.add_function(Function {
                        name: f.name,
                        ret,
                        params,
                        varargs: f.varargs,
                        insts: Vec::new(),
                        blocks: Vec::new(),
                        annotations: f.annotations.clone(),
                        // Bodies come in pass 2; marking the entry now keeps
                        // a later prototype from replacing its parameters
                        // and annotations.
                        is_definition: f.body.is_some(),
                        span: f.span,
                    });
                }
            }
        }
    }

    fn lower_bodies(&mut self, unit: &ast::TranslationUnit) {
        for item in &unit.items {
            if let ast::Item::Func(f) = item {
                if f.body.is_some() {
                    self.lower_function(f);
                }
            }
        }
    }

    // ---- type resolution -------------------------------------------------

    fn resolve_type(&mut self, te: ast::TypeId) -> Type {
        let node = *self.ast.type_expr(te);
        match node.kind {
            TypeExprKind::Void => Type::VOID,
            TypeExprKind::Char(s) => Type::int(8, s == ast::Signedness::Signed),
            TypeExprKind::Short(s) => Type::int(16, s == ast::Signedness::Signed),
            TypeExprKind::Int(s) => Type::int(32, s == ast::Signedness::Signed),
            TypeExprKind::Long(s) => Type::int(64, s == ast::Signedness::Signed),
            TypeExprKind::Float => Type::f32(),
            TypeExprKind::Double => Type::f64(),
            TypeExprKind::Named(n) => match self.module.typedefs.get(&n) {
                Some(&t) => t,
                None => {
                    self.diags.error(node.span, format!("unknown type name `{n}`"));
                    Type::int32()
                }
            },
            TypeExprKind::Struct(tag) | TypeExprKind::Union(tag) => {
                let is_union = matches!(node.kind, TypeExprKind::Union(_));
                let id = self.module.types.struct_by_name(tag).unwrap_or_else(|| {
                    // Forward reference: declare the tag.
                    self.module.types.declare_struct(tag, is_union)
                });
                self.module.types.intern(TypeKind::Struct(id))
            }
            TypeExprKind::Enum(_) => Type::int32(),
            TypeExprKind::Ptr(inner) => {
                let pointee = self.resolve_type(inner);
                self.module.types.ptr_to(pointee)
            }
            TypeExprKind::Array(inner, size) => {
                let elem = self.resolve_type(inner);
                let n = match size {
                    Some(e) => match self.const_eval(e) {
                        Some(v) if v >= 0 => v as u64,
                        _ => {
                            self.diags
                                .error(node.span, "array size must be a nonnegative constant");
                            1
                        }
                    },
                    None => {
                        self.diags.error(
                            node.span,
                            "arrays must have an explicit constant size in the restricted subset",
                        );
                        1
                    }
                };
                self.module.types.array_of(elem, n)
            }
        }
    }

    // ---- constant evaluation ----------------------------------------------

    fn const_eval(&mut self, e: ast::ExprId) -> Option<i64> {
        use ast::ExprKind as EK;
        match &self.ast.expr(e).kind {
            EK::IntLit(v) => Some(*v),
            EK::CharLit(v) => Some(*v),
            EK::Ident(n) => self.module.enum_consts.get(n).copied(),
            EK::Unary(UnOp::Neg, inner) => Some(-self.const_eval(*inner)?),
            EK::Unary(UnOp::Plus, inner) => self.const_eval(*inner),
            EK::Unary(UnOp::BitNot, inner) => Some(!self.const_eval(*inner)?),
            EK::Unary(UnOp::Not, inner) => Some(i64::from(self.const_eval(*inner)? == 0)),
            EK::Binary(op, l, r) => {
                let (l, r) = (*l, *r);
                let a = self.const_eval(l)?;
                let b = self.const_eval(r)?;
                use ast::BinOp as B;
                Some(match op {
                    B::Add => a.wrapping_add(b),
                    B::Sub => a.wrapping_sub(b),
                    B::Mul => a.wrapping_mul(b),
                    B::Div => {
                        if b == 0 {
                            return None;
                        }
                        a / b
                    }
                    B::Rem => {
                        if b == 0 {
                            return None;
                        }
                        a % b
                    }
                    B::Shl => a.wrapping_shl(b as u32),
                    B::Shr => a.wrapping_shr(b as u32),
                    B::Lt => i64::from(a < b),
                    B::Le => i64::from(a <= b),
                    B::Gt => i64::from(a > b),
                    B::Ge => i64::from(a >= b),
                    B::Eq => i64::from(a == b),
                    B::Ne => i64::from(a != b),
                    B::BitAnd => a & b,
                    B::BitXor => a ^ b,
                    B::BitOr => a | b,
                })
            }
            EK::SizeofType(te) => {
                let ty = self.resolve_type(*te);
                Some(self.module.types.size_of(ty) as i64)
            }
            EK::Conditional { cond, then, els } => {
                let (cond, then, els) = (*cond, *then, *els);
                let c = self.const_eval(cond)?;
                if c != 0 {
                    self.const_eval(then)
                } else {
                    self.const_eval(els)
                }
            }
            _ => None,
        }
    }

    // ---- function body lowering -------------------------------------------

    fn lower_function(&mut self, f: &ast::FuncDef) {
        let fid = self.module.function_by_name(f.name).expect("registered in pass 1");
        let ret = self.module.function(fid).ret;
        let n_params = self.module.function(fid).params.len();

        let mut bufs = std::mem::take(&mut self.bufs);
        bufs.blocks.push(BasicBlock {
            insts: Vec::new(),
            terminator: Terminator::Unreachable,
            name: "entry".into(),
        });
        bufs.scopes.push(0);
        let mut fl = FnLower {
            lw: self,
            b: bufs,
            cur: BlockId(0),
            terminated: false,
            loops: Vec::new(),
            extra_annotations: Vec::new(),
            ret_ty: ret,
        };

        // Spill parameters into allocas so they behave like C lvalues; SSA
        // promotion removes the indirection.
        for i in 0..n_params {
            let p = fl.lw.module.function(fid).params[i];
            if p.name.as_str().is_empty() {
                continue;
            }
            let addr_ty = fl.ptr_to(p.ty);
            let slot = fl.emit(InstKind::Alloca { ty: p.ty, name: p.name }, addr_ty, f.span);
            fl.emit(
                InstKind::Store { ptr: Value::Inst(slot), value: Value::Param(i as u32) },
                Type::VOID,
                f.span,
            );
            fl.declare(p.name, LocalSlot { addr: slot, ty: p.ty });
        }

        let body = f.body.as_ref().expect("definition");
        fl.lower_block(body);

        // Implicit return at the end of the function.
        if !fl.terminated {
            let term = if ret == Type::VOID {
                Terminator::Ret(None)
            } else if f.name == "main" {
                Terminator::Ret(Some(Value::i32(0)))
            } else {
                Terminator::Ret(None)
            };
            fl.set_terminator(term);
        }

        let mut bufs = std::mem::take(&mut fl.b);
        let extra = std::mem::take(&mut fl.extra_annotations);
        let func = self.module.function_mut(fid);
        bufs.finish_into(func);
        self.bufs = bufs;
        func.annotations.extend(extra);
    }
}

#[derive(Debug, Clone, Copy)]
struct LocalSlot {
    addr: InstId,
    ty: Type,
}

struct FnLower<'a, 'u, 'd> {
    lw: &'a mut Lowerer<'u, 'd>,
    /// The body being built.
    b: BodyBuffers,
    cur: BlockId,
    terminated: bool,
    /// `(continue_target, break_target)` stack.
    loops: Vec<(BlockId, BlockId)>,
    /// Function-level annotations found in statement position (e.g. the
    /// paper's Figure 3 post-conditions at the end of `initComm`).
    extra_annotations: Vec<Annotation>,
    ret_ty: Type,
}

/// What an lvalue lowered to: an address plus the value type stored there.
#[derive(Clone, Copy)]
struct Place {
    addr: Value,
    ty: Type,
}

impl<'a, 'u, 'd> FnLower<'a, 'u, 'd> {
    // ---- block/instruction plumbing ----

    fn emit(&mut self, kind: InstKind, ty: Type, span: Span) -> InstId {
        if self.terminated {
            // Dead code after return/break: keep lowering into a fresh
            // unreachable block so diagnostics still fire.
            let dead = self.new_block("dead");
            self.switch_to(dead);
        }
        let id = InstId(self.b.insts.len() as u32);
        self.b.insts.push(Inst { kind, ty, span });
        self.b.inst_block.push(self.cur);
        id
    }

    fn new_block(&mut self, name: impl Into<Cow<'static, str>>) -> BlockId {
        let id = BlockId(self.b.blocks.len() as u32);
        self.b.blocks.push(BasicBlock {
            insts: Vec::new(),
            terminator: Terminator::Unreachable,
            name: name.into(),
        });
        id
    }

    fn set_terminator(&mut self, t: Terminator) {
        if !self.terminated {
            self.b.blocks[self.cur.0 as usize].terminator = t;
            self.terminated = true;
        }
    }

    fn switch_to(&mut self, b: BlockId) {
        self.cur = b;
        self.terminated = false;
    }

    fn branch_to(&mut self, b: BlockId) {
        self.set_terminator(Terminator::Br(b));
        self.switch_to(b);
    }

    /// The innermost local named `name`; a redeclaration in one scope
    /// shadows the earlier one.
    fn lookup(&self, name: Symbol) -> Option<LocalSlot> {
        self.b.locals.iter().rev().find(|(n, _)| *n == name).map(|&(_, slot)| slot)
    }

    /// Declares a local in the innermost scope.
    fn declare(&mut self, name: Symbol, slot: LocalSlot) {
        self.b.locals.push((name, slot));
    }

    fn open_scope(&mut self) {
        self.b.scopes.push(self.b.locals.len());
    }

    fn close_scope(&mut self) {
        let start = self.b.scopes.pop().expect("a scope is open");
        self.b.locals.truncate(start);
    }

    fn types(&self) -> &TypeTable {
        &self.lw.module.types
    }

    fn kind(&self, ty: Type) -> TypeKind {
        self.lw.module.types.kind(ty)
    }

    fn ptr_to(&mut self, ty: Type) -> Type {
        self.lw.module.types.ptr_to(ty)
    }

    // ---- statements ----

    fn lower_block(&mut self, b: &ast::Block) {
        self.open_scope();
        for stmt in &b.items {
            self.lower_stmt(*stmt);
        }
        self.close_scope();
    }

    fn lower_stmt(&mut self, s: ast::StmtId) {
        use ast::StmtKind as SK;
        let ast = self.lw.ast;
        let stmt = ast.stmt(s);
        let span = stmt.span;
        match &stmt.kind {
            SK::Empty => {}
            SK::Expr(e) => {
                let _ = self.lower_rvalue(*e);
            }
            SK::Decl(d) => self.lower_local_decl(d),
            SK::Block(b) => self.lower_block(b),
            SK::If { cond, then, els } => {
                let (cond, then, els) = (*cond, *then, *els);
                let c = self.lower_condition(cond);
                let then_bb = self.new_block("if.then");
                let merge_bb = self.new_block("if.end");
                let else_bb = if els.is_some() { self.new_block("if.else") } else { merge_bb };
                self.set_terminator(Terminator::CondBr { cond: c, then_bb, else_bb });
                self.switch_to(then_bb);
                self.lower_stmt(then);
                self.set_terminator(Terminator::Br(merge_bb));
                if let Some(els) = els {
                    self.switch_to(else_bb);
                    self.lower_stmt(els);
                    self.set_terminator(Terminator::Br(merge_bb));
                }
                self.switch_to(merge_bb);
            }
            SK::While { cond, body } => {
                let (cond, body) = (*cond, *body);
                let cond_bb = self.new_block("while.cond");
                let body_bb = self.new_block("while.body");
                let exit_bb = self.new_block("while.end");
                self.branch_to(cond_bb);
                let c = self.lower_condition(cond);
                self.set_terminator(Terminator::CondBr {
                    cond: c,
                    then_bb: body_bb,
                    else_bb: exit_bb,
                });
                self.switch_to(body_bb);
                self.loops.push((cond_bb, exit_bb));
                self.lower_stmt(body);
                self.loops.pop();
                self.set_terminator(Terminator::Br(cond_bb));
                self.switch_to(exit_bb);
            }
            SK::DoWhile { body, cond } => {
                let (body, cond) = (*body, *cond);
                let body_bb = self.new_block("do.body");
                let cond_bb = self.new_block("do.cond");
                let exit_bb = self.new_block("do.end");
                self.branch_to(body_bb);
                self.loops.push((cond_bb, exit_bb));
                self.lower_stmt(body);
                self.loops.pop();
                self.set_terminator(Terminator::Br(cond_bb));
                self.switch_to(cond_bb);
                let c = self.lower_condition(cond);
                self.set_terminator(Terminator::CondBr {
                    cond: c,
                    then_bb: body_bb,
                    else_bb: exit_bb,
                });
                self.switch_to(exit_bb);
            }
            SK::For { init, cond, step, body } => {
                let (init, cond, step, body) = (*init, *cond, *step, *body);
                self.open_scope();
                if let Some(init) = init {
                    self.lower_stmt(init);
                }
                let cond_bb = self.new_block("for.cond");
                let body_bb = self.new_block("for.body");
                let step_bb = self.new_block("for.step");
                let exit_bb = self.new_block("for.end");
                self.branch_to(cond_bb);
                match cond {
                    Some(c) => {
                        let cv = self.lower_condition(c);
                        self.set_terminator(Terminator::CondBr {
                            cond: cv,
                            then_bb: body_bb,
                            else_bb: exit_bb,
                        });
                    }
                    None => self.set_terminator(Terminator::Br(body_bb)),
                }
                self.switch_to(body_bb);
                self.loops.push((step_bb, exit_bb));
                self.lower_stmt(body);
                self.loops.pop();
                self.set_terminator(Terminator::Br(step_bb));
                self.switch_to(step_bb);
                if let Some(step) = step {
                    let _ = self.lower_rvalue(step);
                }
                self.set_terminator(Terminator::Br(cond_bb));
                self.switch_to(exit_bb);
                self.close_scope();
            }
            SK::Switch { scrutinee, cases } => self.lower_switch(*scrutinee, cases, span),
            SK::Return(value) => {
                let v = match value {
                    Some(e) => {
                        let e = *e;
                        let (v, ty) = self.lower_rvalue(e);
                        Some(self.coerce(v, ty, self.ret_ty, ast.expr(e).span))
                    }
                    None => None,
                };
                self.set_terminator(Terminator::Ret(v));
            }
            SK::Break => match self.loops.last() {
                Some(&(_, brk)) => self.set_terminator(Terminator::Br(brk)),
                None => self.lw.diags.error(span, "`break` outside of a loop or switch"),
            },
            SK::Continue => match self.loops.last() {
                Some(&(cont, _)) => self.set_terminator(Terminator::Br(cont)),
                None => self.lw.diags.error(span, "`continue` outside of a loop"),
            },
            SK::Annotation(a) => self.lower_annotation(a, span),
        }
    }

    fn lower_annotation(&mut self, a: &Annotation, span: Span) {
        match a {
            Annotation::AssertSafe { var, .. } => {
                // Anchor the assertion at this program point with the
                // current value of `var`.
                match self.lookup(*var) {
                    Some(slot) => {
                        let v = self.emit(
                            InstKind::Load { ptr: Value::Inst(slot.addr) },
                            slot.ty,
                            span,
                        );
                        self.emit(
                            InstKind::AssertSafe { var: *var, value: Value::Inst(v) },
                            Type::VOID,
                            span,
                        );
                    }
                    None => {
                        // Maybe a global.
                        match self.lw.module.global_by_name(*var) {
                            Some(gid) => {
                                let gty = self.lw.module.global(gid).ty;
                                let v = self.emit(
                                    InstKind::Load { ptr: Value::Global(gid) },
                                    gty,
                                    span,
                                );
                                self.emit(
                                    InstKind::AssertSafe { var: *var, value: Value::Inst(v) },
                                    Type::VOID,
                                    span,
                                );
                            }
                            None => self.lw.diags.error(
                                span,
                                format!("assert(safe({var})): unknown variable `{var}`"),
                            ),
                        }
                    }
                }
            }
            other => {
                // Function-level facts written in statement position (e.g.
                // Figure 3 post-conditions) attach to the function.
                self.extra_annotations.push(other.clone());
            }
        }
    }

    fn lower_switch(&mut self, scrutinee: ast::ExprId, cases: &[ast::SwitchCase], span: Span) {
        let (scrut, sty) = self.lower_rvalue(scrutinee);
        let scrut = self.coerce(scrut, sty, Type::int64(), span);
        let exit_bb = self.new_block("switch.end");

        // Create one block per case arm.
        let case_blocks: Vec<BlockId> =
            (0..cases.len()).map(|i| self.new_block(format!("switch.case{i}"))).collect();

        let mut arms = Vec::new();
        let mut default = exit_bb;
        for (i, case) in cases.iter().enumerate() {
            match &case.label {
                Some(label) => match self.lw.const_eval(*label) {
                    Some(v) => arms.push((v, case_blocks[i])),
                    None => {
                        self.lw.diags.error(case.span, "case label must be a constant expression")
                    }
                },
                None => default = case_blocks[i],
            }
        }
        self.set_terminator(Terminator::Switch { value: scrut, cases: arms, default });

        // Lower arm bodies with fallthrough semantics.
        self.loops.push((exit_bb, exit_bb)); // `continue` in switch is rare; treat like break target for safety
        for (i, case) in cases.iter().enumerate() {
            self.switch_to(case_blocks[i]);
            for stmt in &case.stmts {
                self.lower_stmt(*stmt);
            }
            // Fallthrough to the next case block, or exit.
            let next = case_blocks.get(i + 1).copied().unwrap_or(exit_bb);
            self.set_terminator(Terminator::Br(next));
        }
        self.loops.pop();
        self.switch_to(exit_bb);
    }

    fn lower_local_decl(&mut self, d: &ast::VarDecl) {
        let ty = self.lw.resolve_type(d.ty);
        let addr_ty = self.ptr_to(ty);
        let slot = self.emit(InstKind::Alloca { ty, name: d.name }, addr_ty, d.span);
        self.declare(d.name, LocalSlot { addr: slot, ty });
        if let Some(init) = d.init {
            self.lower_initializer(Value::Inst(slot), ty, init, d.span);
        }
    }

    fn lower_initializer(&mut self, addr: Value, ty: Type, init: ast::InitId, span: Span) {
        let ast = self.lw.ast;
        match (ast.init(init), self.kind(ty)) {
            (ast::Initializer::Expr(e), _) => {
                let e = *e;
                let (v, vty) = self.lower_rvalue(e);
                let v = self.coerce(v, vty, ty, ast.expr(e).span);
                self.emit(InstKind::Store { ptr: addr, value: v }, Type::VOID, span);
            }
            (ast::Initializer::List(items, lspan), TypeKind::Array(elem, n)) => {
                if items.len() as u64 > n {
                    self.lw.diags.error(*lspan, "too many initializers for array");
                }
                let elem_ptr = self.ptr_to(elem);
                for (i, item) in items.iter().enumerate().take(n as usize) {
                    let eaddr = self.emit(
                        InstKind::ElemAddr { base: addr, index: Value::i32(i as i64) },
                        elem_ptr,
                        *lspan,
                    );
                    self.lower_initializer(Value::Inst(eaddr), elem, *item, *lspan);
                }
            }
            (ast::Initializer::List(items, lspan), TypeKind::Struct(sid)) => {
                let n_fields = self.types().layout(sid).fields.len();
                if items.len() > n_fields {
                    self.lw.diags.error(*lspan, "too many initializers for struct");
                }
                for (i, item) in items.iter().enumerate().take(n_fields) {
                    let fty = self.types().layout(sid).fields[i].ty;
                    let field_ptr = self.ptr_to(fty);
                    let faddr = self.emit(
                        InstKind::FieldAddr { base: addr, struct_id: sid, field: i as u32 },
                        field_ptr,
                        *lspan,
                    );
                    self.lower_initializer(Value::Inst(faddr), fty, *item, *lspan);
                }
            }
            (ast::Initializer::List(items, lspan), _) => {
                // Scalar brace init: `int x = {3};`
                match items.as_slice() {
                    [single] => self.lower_initializer(addr, ty, *single, span),
                    _ => self.lw.diags.error(*lspan, "brace initializer on scalar"),
                }
            }
        }
    }

    // ---- expressions ----

    /// Lowers `e` as a condition: a scalar value tested against zero.
    fn lower_condition(&mut self, e: ast::ExprId) -> Value {
        let span = self.lw.ast.expr(e).span;
        let (v, ty) = self.lower_rvalue(e);
        match self.kind(ty) {
            TypeKind::Int { .. } => v,
            TypeKind::Ptr(_) => {
                let null = Value::ConstNull(ty);
                Value::Inst(self.emit(
                    InstKind::Cmp { op: CmpOp::Ne, lhs: v, rhs: null },
                    Type::int32(),
                    span,
                ))
            }
            TypeKind::Float { .. } => {
                let zero = Value::ConstFloat(0.0, ty);
                Value::Inst(self.emit(
                    InstKind::Cmp { op: CmpOp::Ne, lhs: v, rhs: zero },
                    Type::int32(),
                    span,
                ))
            }
            _ => {
                self.lw.diags.error(span, "condition must have scalar type");
                Value::i32(0)
            }
        }
    }

    /// Lowers `e` as an rvalue, returning the value and its type.
    fn lower_rvalue(&mut self, e: ast::ExprId) -> (Value, Type) {
        use ast::ExprKind as EK;
        let ast = self.lw.ast;
        let node = ast.expr(e);
        let span = node.span;
        match &node.kind {
            EK::IntLit(v) => (Value::ConstInt(*v, Type::int32()), Type::int32()),
            EK::CharLit(v) => (Value::ConstInt(*v, Type::int8()), Type::int8()),
            EK::FloatLit(v) => (Value::ConstFloat(*v, Type::f64()), Type::f64()),
            EK::StrLit(s) => self.lower_string_literal(s.as_str(), span),
            EK::Ident(n) => {
                // Enum constant?
                if let Some(&v) = self.lw.module.enum_consts.get(n) {
                    return (Value::ConstInt(v, Type::int32()), Type::int32());
                }
                match self.lower_lvalue(e) {
                    Some(place) => self.load_place(place, span),
                    None => (Value::i32(0), Type::int32()),
                }
            }
            EK::Member { .. } | EK::Index(..) | EK::Unary(UnOp::Deref, _) => {
                match self.lower_lvalue(e) {
                    Some(place) => self.load_place(place, span),
                    None => (Value::i32(0), Type::int32()),
                }
            }
            EK::Unary(UnOp::AddrOf, inner) => match self.lower_lvalue(*inner) {
                Some(place) => (place.addr, self.ptr_to(place.ty)),
                None => (Value::ConstNull(Type::void_ptr()), Type::void_ptr()),
            },
            EK::Unary(op, inner) => {
                let (v, ty) = self.lower_rvalue(*inner);
                match op {
                    UnOp::Plus => (v, ty),
                    UnOp::Neg => {
                        let zero = if self.types().is_float(ty) {
                            Value::ConstFloat(0.0, ty)
                        } else {
                            Value::ConstInt(0, ty)
                        };
                        let id = self.emit(
                            InstKind::Bin { op: BinOp::Sub, lhs: zero, rhs: v },
                            ty,
                            span,
                        );
                        (Value::Inst(id), ty)
                    }
                    UnOp::Not => {
                        let zero = match self.kind(ty) {
                            TypeKind::Float { .. } => Value::ConstFloat(0.0, ty),
                            TypeKind::Ptr(_) => Value::ConstNull(ty),
                            _ => Value::ConstInt(0, ty),
                        };
                        let id = self.emit(
                            InstKind::Cmp { op: CmpOp::Eq, lhs: v, rhs: zero },
                            Type::int32(),
                            span,
                        );
                        (Value::Inst(id), Type::int32())
                    }
                    UnOp::BitNot => {
                        let m1 = Value::ConstInt(-1, ty);
                        let id =
                            self.emit(InstKind::Bin { op: BinOp::Xor, lhs: v, rhs: m1 }, ty, span);
                        (Value::Inst(id), ty)
                    }
                    UnOp::Deref | UnOp::AddrOf => unreachable!("handled above"),
                }
            }
            EK::Binary(op, l, r) => self.lower_binary(*op, *l, *r, span),
            EK::LogicalAnd(l, r) => self.lower_short_circuit(*l, *r, true, span),
            EK::LogicalOr(l, r) => self.lower_short_circuit(*l, *r, false, span),
            EK::Assign { op, lhs, rhs } => self.lower_assign(op, *lhs, *rhs, span),
            EK::Conditional { cond, then, els } => self.lower_ternary(*cond, *then, *els, span),
            EK::Call { callee, args } => self.lower_call(*callee, args, span),
            EK::Cast(te, inner) => {
                let to = self.lw.resolve_type(*te);
                let (v, from) = self.lower_rvalue(*inner);
                let v = self.cast_value(v, from, to, span);
                (v, to)
            }
            EK::SizeofType(te) => {
                let ty = self.lw.resolve_type(*te);
                let sz = self.types().size_of(ty) as i64;
                (Value::ConstInt(sz, Type::int64()), Type::int64())
            }
            EK::SizeofExpr(inner) => {
                // Type of the expression without evaluating it: lower into a
                // scratch throwaway? The restricted subset only needs the
                // type, so lower and discard (safe: no side effects matter
                // for sizeof in practice in the corpus).
                let ty = self.type_of_expr(*inner);
                let sz = self.types().size_of(ty) as i64;
                (Value::ConstInt(sz, Type::int64()), Type::int64())
            }
            EK::PreIncDec(inner, inc) => {
                let delta = if *inc { 1 } else { -1 };
                match self.lower_lvalue(*inner) {
                    Some(place) => {
                        let (old, ty) = self.load_place(place, span);
                        let new_v = self.apply_incdec(old, ty, delta, span);
                        self.emit(
                            InstKind::Store { ptr: place.addr, value: new_v },
                            Type::VOID,
                            span,
                        );
                        (new_v, ty)
                    }
                    None => (Value::i32(0), Type::int32()),
                }
            }
            EK::PostIncDec(inner, inc) => {
                let delta = if *inc { 1 } else { -1 };
                match self.lower_lvalue(*inner) {
                    Some(place) => {
                        let (old, ty) = self.load_place(place, span);
                        let new_v = self.apply_incdec(old, ty, delta, span);
                        self.emit(
                            InstKind::Store { ptr: place.addr, value: new_v },
                            Type::VOID,
                            span,
                        );
                        (old, ty)
                    }
                    None => (Value::i32(0), Type::int32()),
                }
            }
            EK::Comma(l, r) => {
                let (l, r) = (*l, *r);
                let _ = self.lower_rvalue(l);
                self.lower_rvalue(r)
            }
        }
    }

    fn apply_incdec(&mut self, v: Value, ty: Type, delta: i64, span: Span) -> Value {
        let kind = match self.kind(ty) {
            TypeKind::Ptr(_) => InstKind::ElemAddr { base: v, index: Value::i32(delta) },
            TypeKind::Float { .. } => {
                InstKind::Bin { op: BinOp::Add, lhs: v, rhs: Value::ConstFloat(delta as f64, ty) }
            }
            _ => InstKind::Bin { op: BinOp::Add, lhs: v, rhs: Value::ConstInt(delta, ty) },
        };
        Value::Inst(self.emit(kind, ty, span))
    }

    fn lower_string_literal(&mut self, s: &str, span: Span) -> (Value, Type) {
        let name = Symbol::intern(&format!("__str_{}", self.lw.str_counter));
        self.lw.str_counter += 1;
        let ty = self.lw.module.types.array_of(Type::int8(), s.len() as u64 + 1);
        let gid = self.lw.module.add_global(Global { name, ty, has_init: true, span });
        // Decay to char*.
        let char_ptr = self.ptr_to(Type::int8());
        let id = self.emit(
            InstKind::ElemAddr { base: Value::Global(gid), index: Value::i32(0) },
            char_ptr,
            span,
        );
        (Value::Inst(id), char_ptr)
    }

    /// Best-effort static type of an expression (for `sizeof expr`).
    fn type_of_expr(&mut self, e: ast::ExprId) -> Type {
        use ast::ExprKind as EK;
        let ast = self.lw.ast;
        match &ast.expr(e).kind {
            EK::IntLit(_) => Type::int32(),
            EK::FloatLit(_) => Type::f64(),
            EK::CharLit(_) => Type::int8(),
            EK::StrLit(s) => {
                self.lw.module.types.array_of(Type::int8(), s.as_str().len() as u64 + 1)
            }
            EK::Ident(n) => self
                .lookup(*n)
                .map(|s| s.ty)
                .or_else(|| self.lw.module.global_by_name(*n).map(|g| self.lw.module.global(g).ty))
                .unwrap_or_else(Type::int32),
            EK::Unary(UnOp::Deref, inner) => {
                let t = self.type_of_expr(*inner);
                self.types().pointee(t).unwrap_or_else(Type::int32)
            }
            EK::Unary(UnOp::AddrOf, inner) => {
                let t = self.type_of_expr(*inner);
                self.ptr_to(t)
            }
            EK::Cast(te, _) => self.lw.resolve_type(*te),
            EK::Member { base, field, arrow } => {
                let bt = self.type_of_expr(*base);
                let st = if *arrow { self.types().pointee(bt).unwrap_or(Type::VOID) } else { bt };
                if let TypeKind::Struct(sid) = self.kind(st) {
                    let layout = self.types().layout(sid);
                    if let Some(i) = layout.field_index(*field) {
                        return layout.fields[i].ty;
                    }
                }
                Type::int32()
            }
            EK::Index(base, _) => {
                let bt = self.type_of_expr(*base);
                match self.kind(bt) {
                    TypeKind::Array(e, _) | TypeKind::Ptr(e) => e,
                    _ => Type::int32(),
                }
            }
            _ => Type::int32(),
        }
    }

    /// Loads from a place; arrays decay to element pointers instead of
    /// loading.
    fn load_place(&mut self, place: Place, span: Span) -> (Value, Type) {
        match self.kind(place.ty) {
            TypeKind::Array(elem, _) => {
                let pty = self.ptr_to(elem);
                let id = self.emit(
                    InstKind::ElemAddr { base: place.addr, index: Value::i32(0) },
                    pty,
                    span,
                );
                (Value::Inst(id), pty)
            }
            _ => {
                let id = self.emit(InstKind::Load { ptr: place.addr }, place.ty, span);
                (Value::Inst(id), place.ty)
            }
        }
    }

    /// Lowers `e` as an lvalue to an address.
    fn lower_lvalue(&mut self, e: ast::ExprId) -> Option<Place> {
        use ast::ExprKind as EK;
        let ast = self.lw.ast;
        let node = ast.expr(e);
        let span = node.span;
        match &node.kind {
            EK::Ident(n) => {
                if let Some(slot) = self.lookup(*n) {
                    return Some(Place { addr: Value::Inst(slot.addr), ty: slot.ty });
                }
                if let Some(gid) = self.lw.module.global_by_name(*n) {
                    let ty = self.lw.module.global(gid).ty;
                    return Some(Place { addr: Value::Global(gid), ty });
                }
                self.lw.diags.error(span, format!("unknown variable `{n}`"));
                None
            }
            EK::Unary(UnOp::Deref, inner) => {
                let (v, ty) = self.lower_rvalue(*inner);
                match self.types().pointee(ty) {
                    Some(p) => Some(Place { addr: v, ty: p }),
                    None => {
                        self.lw.diags.error(span, "cannot dereference a non-pointer");
                        None
                    }
                }
            }
            EK::Index(base, index) => {
                let (base, index) = (*base, *index);
                let (bv, bty) = self.lower_rvalue(base); // arrays decay here
                let (iv, ity) = self.lower_rvalue(index);
                let iv = self.coerce(iv, ity, Type::int64(), ast.expr(index).span);
                match self.types().pointee(bty) {
                    Some(elem) => {
                        let elem_ptr = self.ptr_to(elem);
                        let id =
                            self.emit(InstKind::ElemAddr { base: bv, index: iv }, elem_ptr, span);
                        Some(Place { addr: Value::Inst(id), ty: elem })
                    }
                    None => {
                        self.lw.diags.error(span, "indexing a non-pointer value");
                        None
                    }
                }
            }
            EK::Member { base, field, arrow } => {
                let (base_addr, struct_ty) = if *arrow {
                    let (v, ty) = self.lower_rvalue(*base);
                    match self.types().pointee(ty) {
                        Some(p) => (v, p),
                        None => {
                            self.lw.diags.error(span, "`->` on a non-pointer");
                            return None;
                        }
                    }
                } else {
                    let place = self.lower_lvalue(*base)?;
                    (place.addr, place.ty)
                };
                match self.kind(struct_ty) {
                    TypeKind::Struct(sid) => {
                        let layout = self.types().layout(sid);
                        match layout.field_index(*field) {
                            Some(i) => {
                                let fty = layout.fields[i].ty;
                                let field_ptr = self.ptr_to(fty);
                                let id = self.emit(
                                    InstKind::FieldAddr {
                                        base: base_addr,
                                        struct_id: sid,
                                        field: i as u32,
                                    },
                                    field_ptr,
                                    span,
                                );
                                Some(Place { addr: Value::Inst(id), ty: fty })
                            }
                            None => {
                                let sname = self.types().layout(sid).name;
                                self.lw.diags.error(
                                    span,
                                    format!("struct `{sname}` has no field `{field}`"),
                                );
                                None
                            }
                        }
                    }
                    _ => {
                        self.lw.diags.error(span, "member access on a non-struct");
                        None
                    }
                }
            }
            EK::Cast(te, inner) => {
                // `(T*)p` used as an lvalue base — lower the cast as rvalue
                // and synthesize a place through the result.
                let to = self.lw.resolve_type(*te);
                let (v, from) = self.lower_rvalue(*inner);
                let v = self.cast_value(v, from, to, span);
                match self.types().pointee(to) {
                    Some(_) => {
                        // The *place* here would be *(T*)p — only reachable
                        // via deref, which is handled above; a cast is not an
                        // lvalue in C.
                        let _ = v;
                        self.lw.diags.error(span, "cast expressions are not lvalues");
                        None
                    }
                    None => {
                        self.lw.diags.error(span, "cast expressions are not lvalues");
                        None
                    }
                }
            }
            _ => {
                self.lw.diags.error(span, "expression is not an lvalue");
                None
            }
        }
    }

    fn lower_binary(
        &mut self,
        op: ast::BinOp,
        l: ast::ExprId,
        r: ast::ExprId,
        span: Span,
    ) -> (Value, Type) {
        use ast::BinOp as B;
        let (lv, lt) = self.lower_rvalue(l);
        let (rv, rt) = self.lower_rvalue(r);

        // Pointer arithmetic.
        if matches!(op, B::Add | B::Sub) {
            match (self.kind(lt), self.kind(rt)) {
                (TypeKind::Ptr(_), TypeKind::Int { .. }) => {
                    let idx = if op == B::Sub {
                        let zero = Value::ConstInt(0, rt);
                        Value::Inst(self.emit(
                            InstKind::Bin { op: BinOp::Sub, lhs: zero, rhs: rv },
                            rt,
                            span,
                        ))
                    } else {
                        rv
                    };
                    let id = self.emit(InstKind::ElemAddr { base: lv, index: idx }, lt, span);
                    return (Value::Inst(id), lt);
                }
                (TypeKind::Int { .. }, TypeKind::Ptr(_)) if op == B::Add => {
                    let id = self.emit(InstKind::ElemAddr { base: rv, index: lv }, rt, span);
                    return (Value::Inst(id), rt);
                }
                (TypeKind::Ptr(_), TypeKind::Ptr(_)) if op == B::Sub => {
                    // Pointer difference: cast both to integers. (On shared
                    // memory this trips restriction P3, by design.)
                    let li = self.emit(
                        InstKind::Cast { kind: CastKind::PtrToInt, value: lv },
                        Type::int64(),
                        span,
                    );
                    let ri = self.emit(
                        InstKind::Cast { kind: CastKind::PtrToInt, value: rv },
                        Type::int64(),
                        span,
                    );
                    let id = self.emit(
                        InstKind::Bin {
                            op: BinOp::Sub,
                            lhs: Value::Inst(li),
                            rhs: Value::Inst(ri),
                        },
                        Type::int64(),
                        span,
                    );
                    return (Value::Inst(id), Type::int64());
                }
                _ => {}
            }
        }

        // Pointer comparisons.
        if op.is_comparison() && (self.types().is_ptr(lt) || self.types().is_ptr(rt)) {
            let cmp = comparison_op(op);
            let id = self.emit(InstKind::Cmp { op: cmp, lhs: lv, rhs: rv }, Type::int32(), span);
            return (Value::Inst(id), Type::int32());
        }

        // Usual arithmetic conversions (simplified): unify to the "wider"
        // of the two types.
        let common = common_type(&mut self.lw.module.types, lt, rt);
        let lv = self.coerce(lv, lt, common, span);
        let rv = self.coerce(rv, rt, common, span);

        if op.is_comparison() {
            let cmp = comparison_op(op);
            let id = self.emit(InstKind::Cmp { op: cmp, lhs: lv, rhs: rv }, Type::int32(), span);
            return (Value::Inst(id), Type::int32());
        }
        let bop = match op {
            B::Add => BinOp::Add,
            B::Sub => BinOp::Sub,
            B::Mul => BinOp::Mul,
            B::Div => BinOp::Div,
            B::Rem => BinOp::Rem,
            B::Shl => BinOp::Shl,
            B::Shr => BinOp::Shr,
            B::BitAnd => BinOp::And,
            B::BitOr => BinOp::Or,
            B::BitXor => BinOp::Xor,
            _ => unreachable!("comparisons handled above"),
        };
        let id = self.emit(InstKind::Bin { op: bop, lhs: lv, rhs: rv }, common, span);
        (Value::Inst(id), common)
    }

    fn lower_short_circuit(
        &mut self,
        l: ast::ExprId,
        r: ast::ExprId,
        is_and: bool,
        span: Span,
    ) -> (Value, Type) {
        // Lower via a result slot; SSA promotion turns it into a phi.
        let int_ptr = self.ptr_to(Type::int32());
        let slot =
            self.emit(InstKind::Alloca { ty: Type::int32(), name: "__sc".into() }, int_ptr, span);
        let lv = self.lower_condition(l);
        let lbool = self.normalize_bool(lv, span);
        self.emit(InstKind::Store { ptr: Value::Inst(slot), value: lbool }, Type::VOID, span);
        let rhs_bb = self.new_block(if is_and { "and.rhs" } else { "or.rhs" });
        let merge_bb = self.new_block("sc.end");
        if is_and {
            self.set_terminator(Terminator::CondBr {
                cond: lbool,
                then_bb: rhs_bb,
                else_bb: merge_bb,
            });
        } else {
            self.set_terminator(Terminator::CondBr {
                cond: lbool,
                then_bb: merge_bb,
                else_bb: rhs_bb,
            });
        }
        self.switch_to(rhs_bb);
        let rv = self.lower_condition(r);
        let rbool = self.normalize_bool(rv, span);
        self.emit(InstKind::Store { ptr: Value::Inst(slot), value: rbool }, Type::VOID, span);
        self.set_terminator(Terminator::Br(merge_bb));
        self.switch_to(merge_bb);
        let v = self.emit(InstKind::Load { ptr: Value::Inst(slot) }, Type::int32(), span);
        (Value::Inst(v), Type::int32())
    }

    fn normalize_bool(&mut self, v: Value, span: Span) -> Value {
        // Compare against zero so stored booleans are canonical 0/1.
        let id = self.emit(
            InstKind::Cmp { op: CmpOp::Ne, lhs: v, rhs: Value::i32(0) },
            Type::int32(),
            span,
        );
        Value::Inst(id)
    }

    fn lower_ternary(
        &mut self,
        cond: ast::ExprId,
        then: ast::ExprId,
        els: ast::ExprId,
        span: Span,
    ) -> (Value, Type) {
        let c = self.lower_condition(cond);
        let then_bb = self.new_block("sel.then");
        let else_bb = self.new_block("sel.else");
        let merge_bb = self.new_block("sel.end");

        // We need the result type before emitting stores; peek via a typing
        // pass on the then-branch.
        let result_ty = self.type_of_expr(then);
        let result_ptr = self.ptr_to(result_ty);
        let slot =
            self.emit(InstKind::Alloca { ty: result_ty, name: "__sel".into() }, result_ptr, span);
        self.set_terminator(Terminator::CondBr { cond: c, then_bb, else_bb });

        self.switch_to(then_bb);
        let (tv, tt) = self.lower_rvalue(then);
        let tv = self.coerce(tv, tt, result_ty, span);
        self.emit(InstKind::Store { ptr: Value::Inst(slot), value: tv }, Type::VOID, span);
        self.set_terminator(Terminator::Br(merge_bb));

        self.switch_to(else_bb);
        let (ev, et) = self.lower_rvalue(els);
        let ev = self.coerce(ev, et, result_ty, span);
        self.emit(InstKind::Store { ptr: Value::Inst(slot), value: ev }, Type::VOID, span);
        self.set_terminator(Terminator::Br(merge_bb));

        self.switch_to(merge_bb);
        let v = self.emit(InstKind::Load { ptr: Value::Inst(slot) }, result_ty, span);
        (Value::Inst(v), result_ty)
    }

    fn lower_assign(
        &mut self,
        op: &Option<ast::BinOp>,
        lhs: ast::ExprId,
        rhs: ast::ExprId,
        span: Span,
    ) -> (Value, Type) {
        let place = match self.lower_lvalue(lhs) {
            Some(p) => p,
            None => return (Value::i32(0), Type::int32()),
        };
        let value = match op {
            None => {
                let (rv, rt) = self.lower_rvalue(rhs);
                self.coerce(rv, rt, place.ty, span)
            }
            Some(binop) => {
                // Compound assignment: load, combine, store.
                let (old, oty) = self.load_place(place, span);
                let (rv, rt) = self.lower_rvalue(rhs);
                // Pointer += int
                if self.types().is_ptr(oty) && matches!(binop, ast::BinOp::Add | ast::BinOp::Sub) {
                    let idx = if *binop == ast::BinOp::Sub {
                        let zero = Value::ConstInt(0, rt);
                        Value::Inst(self.emit(
                            InstKind::Bin { op: BinOp::Sub, lhs: zero, rhs: rv },
                            rt,
                            span,
                        ))
                    } else {
                        rv
                    };
                    Value::Inst(self.emit(InstKind::ElemAddr { base: old, index: idx }, oty, span))
                } else {
                    let common = common_type(&mut self.lw.module.types, oty, rt);
                    let a = self.coerce(old, oty, common, span);
                    let b = self.coerce(rv, rt, common, span);
                    let bop = match binop {
                        ast::BinOp::Add => BinOp::Add,
                        ast::BinOp::Sub => BinOp::Sub,
                        ast::BinOp::Mul => BinOp::Mul,
                        ast::BinOp::Div => BinOp::Div,
                        ast::BinOp::Rem => BinOp::Rem,
                        ast::BinOp::Shl => BinOp::Shl,
                        ast::BinOp::Shr => BinOp::Shr,
                        ast::BinOp::BitAnd => BinOp::And,
                        ast::BinOp::BitOr => BinOp::Or,
                        ast::BinOp::BitXor => BinOp::Xor,
                        other => {
                            self.lw.diags.error(
                                span,
                                format!("invalid compound assignment operator {other:?}"),
                            );
                            BinOp::Add
                        }
                    };
                    let combined =
                        self.emit(InstKind::Bin { op: bop, lhs: a, rhs: b }, common, span);
                    self.coerce(Value::Inst(combined), common, place.ty, span)
                }
            }
        };
        self.emit(InstKind::Store { ptr: place.addr, value }, Type::VOID, span);
        (value, place.ty)
    }

    fn lower_call(&mut self, callee: Symbol, args: &[ast::ExprId], span: Span) -> (Value, Type) {
        let mut lowered = Vec::with_capacity(args.len());
        let target = self.lw.module.function_by_name(callee);
        let (callee_kind, ret_ty, n_params, varargs) = match target {
            Some(fid) => {
                let f = self.lw.module.function(fid);
                (Callee::Local(fid), f.ret, f.params.len(), f.varargs)
            }
            None => (Callee::External(callee), default_external_ret(callee.as_str()), 0, true),
        };
        for (i, a) in args.iter().enumerate() {
            let a = *a;
            let aspan = self.lw.ast.expr(a).span;
            let (v, ty) = self.lower_rvalue(a);
            let param_ty =
                target.and_then(|fid| self.lw.module.function(fid).params.get(i)).map(|p| p.ty);
            let v = match param_ty {
                Some(pt) => self.coerce(v, ty, pt, aspan),
                None => {
                    if !varargs && n_params > 0 {
                        self.lw.diags.warning(aspan, format!("too many arguments to `{callee}`"));
                    }
                    v
                }
            };
            lowered.push(v);
        }
        if !varargs && lowered.len() < n_params {
            self.lw.diags.warning(span, format!("too few arguments to `{callee}`"));
        }
        let id = self.emit(InstKind::Call { callee: callee_kind, args: lowered }, ret_ty, span);
        (Value::Inst(id), ret_ty)
    }

    // ---- conversions ----

    fn coerce(&mut self, v: Value, from: Type, to: Type, span: Span) -> Value {
        if from == to || to == Type::VOID {
            return v;
        }
        self.cast_value(v, from, to, span)
    }

    fn cast_value(&mut self, v: Value, from: Type, to: Type, span: Span) -> Value {
        if from == to {
            return v;
        }
        use TypeKind::{Float, Int, Ptr};
        let kind = match (self.kind(from), self.kind(to)) {
            (Int { .. }, Int { .. }) => CastKind::IntToInt,
            (Int { .. }, Float { .. }) => CastKind::IntToFloat,
            (Float { .. }, Int { .. }) => CastKind::FloatToInt,
            (Float { .. }, Float { .. }) => CastKind::FloatToFloat,
            (Ptr(_), Ptr(_)) => CastKind::PtrToPtr,
            (Ptr(_), Int { .. }) => CastKind::PtrToInt,
            (Int { .. }, Ptr(_)) => CastKind::IntToPtr,
            _ => {
                // Fold away no-op casts (e.g. to void) silently.
                if to == Type::VOID {
                    return v;
                }
                self.lw.diags.error(
                    span,
                    format!(
                        "unsupported conversion from `{}` to `{}`",
                        self.types().display(from),
                        self.types().display(to)
                    ),
                );
                return v;
            }
        };
        // Constant folding for the common literal cases keeps the IR tidy.
        match (v, kind) {
            (Value::ConstInt(c, _), CastKind::IntToInt) => Value::ConstInt(c, to),
            (Value::ConstInt(c, _), CastKind::IntToFloat) => Value::ConstFloat(c as f64, to),
            (Value::ConstFloat(c, _), CastKind::FloatToFloat) => Value::ConstFloat(c, to),
            (Value::ConstInt(0, _), CastKind::IntToPtr) => Value::ConstNull(to),
            _ => Value::Inst(self.emit(InstKind::Cast { kind, value: v }, to, span)),
        }
    }
}

fn comparison_op(op: ast::BinOp) -> CmpOp {
    match op {
        ast::BinOp::Lt => CmpOp::Lt,
        ast::BinOp::Le => CmpOp::Le,
        ast::BinOp::Gt => CmpOp::Gt,
        ast::BinOp::Ge => CmpOp::Ge,
        ast::BinOp::Eq => CmpOp::Eq,
        ast::BinOp::Ne => CmpOp::Ne,
        _ => unreachable!("not a comparison"),
    }
}

/// Simplified usual-arithmetic-conversions: floats beat ints, wider beats
/// narrower, unsigned beats signed at equal width.
fn common_type(types: &mut TypeTable, a: Type, b: Type) -> Type {
    use TypeKind::{Float, Int, Ptr};
    match (types.kind(a), types.kind(b)) {
        (Float { bits: x }, Float { bits: y }) => types.intern(Float { bits: x.max(y) }),
        (Float { .. }, _) => a,
        (_, Float { .. }) => b,
        (Int { bits: x, signed: sx }, Int { bits: y, signed: sy }) => {
            // Promote to at least int.
            let bits = x.max(y).max(32);
            let signed = if x == y {
                sx && sy
            } else if x > y {
                sx
            } else {
                sy
            };
            types.intern(Int { bits, signed })
        }
        (Ptr(_), _) => a,
        (_, Ptr(_)) => b,
        _ => Type::int32(),
    }
}

fn default_external_ret(name: &str) -> Type {
    // Known runtime/libc functions the corpus calls; everything else
    // defaults to `int`.
    match name {
        "shmat" | "malloc" | "calloc" => Type::void_ptr(),
        "sqrt" | "fabs" | "sin" | "cos" | "atan2" | "exp" | "pow" => Type::f64(),
        "sqrtf" | "fabsf" => Type::f32(),
        _ => Type::int32(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use safeflow_syntax::parse_source;

    fn lower_ok(src: &str) -> Module {
        let pr = parse_source("t.c", src);
        assert!(!pr.diags.has_errors(), "parse: {:?}", pr.diags);
        let mut diags = Diagnostics::new();
        let m = lower(&pr.unit, &mut diags);
        assert!(!diags.has_errors(), "lower: {}", diags.render_all(&pr.sources));
        m
    }

    use safeflow_syntax::diag::Diagnostics;

    #[test]
    fn lower_simple_function() {
        let m = lower_ok("int add(int a, int b) { return a + b; }");
        let fid = m.function_by_name("add".into()).unwrap();
        let f = m.function(fid);
        assert!(f.is_definition);
        assert_eq!(f.params.len(), 2);
        assert_eq!(f.ret, Type::int32());
        // entry block: 2 allocas + 2 stores + loads + add
        assert!(f.insts.len() >= 5);
        assert!(matches!(f.blocks[0].terminator, Terminator::Ret(Some(_))));
    }

    /// A prototype names the same function as its definition, before or
    /// after it; the definition's parameters and annotations stand either
    /// way.
    #[test]
    fn a_prototype_never_replaces_its_definition() {
        let def = "int f(int a)\n/** SafeFlow Annotation assume(core(a, 0, 4)) */\n\
                   { return a + 1; }\n";
        for src in [
            format!("{def}int f();"),
            format!("{def}int f(int b);"),
            format!("int f(int b);\n{def}"),
        ] {
            let m = lower_ok(&src);
            let f = m.function(m.function_by_name("f".into()).unwrap());
            assert!(f.is_definition, "{src}");
            assert_eq!(f.params.len(), 1, "{src}");
            assert_eq!(f.params[0].name.as_str(), "a", "{src}");
            assert_eq!(f.annotations.len(), 1, "{src}");
        }
    }

    #[test]
    fn lower_if_produces_diamond() {
        let m = lower_ok("int f(int x) { if (x > 0) return 1; else return 2; }");
        let f = m.function(m.function_by_name("f".into()).unwrap());
        assert!(f.blocks.len() >= 3);
        assert!(matches!(f.blocks[0].terminator, Terminator::CondBr { .. }));
    }

    #[test]
    fn lower_while_loop_shape() {
        let m = lower_ok("int f(int n) { int s = 0; while (n > 0) { s += n; n--; } return s; }");
        let f = m.function(m.function_by_name("f".into()).unwrap());
        // entry, cond, body, exit
        assert!(f.blocks.len() >= 4);
        let names: Vec<_> = f.blocks.iter().map(|b| b.name.clone()).collect();
        assert!(names.iter().any(|n| n == "while.cond"));
        assert!(names.iter().any(|n| n == "while.body"));
    }

    #[test]
    fn lower_struct_member_access() {
        let m = lower_ok(
            "typedef struct { float control; int valid; } D;\nfloat get(D *d) { return d->control; }",
        );
        let f = m.function(m.function_by_name("get".into()).unwrap());
        let has_field_addr =
            f.insts.iter().any(|i| matches!(i.kind, InstKind::FieldAddr { field: 0, .. }));
        assert!(has_field_addr);
    }

    #[test]
    fn lower_array_indexing() {
        let m = lower_ok("int sum(int *a, int n) { int s = 0; int i; for (i = 0; i < n; i++) s += a[i]; return s; }");
        let f = m.function(m.function_by_name("sum".into()).unwrap());
        let elem_addrs =
            f.insts.iter().filter(|i| matches!(i.kind, InstKind::ElemAddr { .. })).count();
        assert!(elem_addrs >= 1);
    }

    #[test]
    fn lower_pointer_arithmetic_to_elem_addr() {
        let m = lower_ok("typedef struct { float c; } D;\nD *g;\nvoid f(void) { D *p = g + 1; }");
        let f = m.function(m.function_by_name("f".into()).unwrap());
        assert!(f.insts.iter().any(|i| matches!(i.kind, InstKind::ElemAddr { .. })));
    }

    #[test]
    fn lower_call_binds_local_and_external() {
        let m =
            lower_ok("int helper(int x) { return x; }\nvoid f(void) { helper(1); unknown_fn(2); }");
        let f = m.function(m.function_by_name("f".into()).unwrap());
        let mut local = 0;
        let mut external = 0;
        for inst in &f.insts {
            if let InstKind::Call { callee, .. } = &inst.kind {
                match callee {
                    Callee::Local(_) => local += 1,
                    Callee::External(name) => {
                        assert_eq!(name, "unknown_fn");
                        external += 1;
                    }
                }
            }
        }
        assert_eq!((local, external), (1, 1));
    }

    #[test]
    fn lower_assert_safe_anchor() {
        let m = lower_ok(
            r#"
            void sendControl(float v);
            void step(void) {
                float output = 1.0;
                /** SafeFlow Annotation assert(safe(output)) */
                sendControl(output);
            }
            "#,
        );
        let f = m.function(m.function_by_name("step".into()).unwrap());
        let anchor = f
            .insts
            .iter()
            .find(|i| matches!(&i.kind, InstKind::AssertSafe { var, .. } if var == "output"));
        assert!(anchor.is_some());
    }

    #[test]
    fn statement_level_facts_move_to_function() {
        let m = lower_ok(
            r#"
            typedef struct { float c; } D;
            D *fb;
            void initComm(void)
            /** SafeFlow Annotation shminit */
            {
                /** SafeFlow Annotation assume(shmvar(fb, sizeof(D))) */
            }
            "#,
        );
        let f = m.function(m.function_by_name("initComm".into()).unwrap());
        assert!(f.is_shminit());
        assert!(f
            .annotations
            .iter()
            .any(|a| matches!(a, Annotation::ShmVar { ptr, .. } if ptr == "fb")));
    }

    #[test]
    fn enum_constants_fold() {
        let m = lower_ok("enum M { A, B = 7 };\nint f(void) { return B; }");
        let f = m.function(m.function_by_name("f".into()).unwrap());
        assert!(matches!(f.blocks[0].terminator, Terminator::Ret(Some(Value::ConstInt(7, _)))));
    }

    #[test]
    fn sizeof_folds_to_constant() {
        let m =
            lower_ok("typedef struct { double a; int b; } T;\nlong f(void) { return sizeof(T); }");
        let f = m.function(m.function_by_name("f".into()).unwrap());
        assert!(matches!(f.blocks[0].terminator, Terminator::Ret(Some(Value::ConstInt(16, _)))));
    }

    #[test]
    fn short_circuit_creates_blocks() {
        let m = lower_ok("int f(int a, int b) { return a && b; }");
        let f = m.function(m.function_by_name("f".into()).unwrap());
        assert!(f.blocks.iter().any(|b| b.name == "and.rhs"));
    }

    #[test]
    fn ternary_merges_values() {
        let m = lower_ok("int f(int a) { return a > 0 ? a : 0 - a; }");
        let f = m.function(m.function_by_name("f".into()).unwrap());
        assert!(f.blocks.iter().any(|b| b.name == "sel.then"));
        assert!(f.blocks.iter().any(|b| b.name == "sel.end"));
    }

    #[test]
    fn switch_lowered_with_cases() {
        let m = lower_ok(
            "int f(int x) { switch (x) { case 1: return 10; case 2: return 20; default: return 0; } }",
        );
        let f = m.function(m.function_by_name("f".into()).unwrap());
        let has_switch = f
            .blocks
            .iter()
            .any(|b| matches!(&b.terminator, Terminator::Switch { cases, .. } if cases.len() == 2));
        assert!(has_switch);
    }

    #[test]
    fn switch_fallthrough_branches_to_next_case() {
        let m = lower_ok(
            "int f(int x) { int r = 0; switch (x) { case 1: r = 1; case 2: r = 2; break; } return r; }",
        );
        let f = m.function(m.function_by_name("f".into()).unwrap());
        // case0 must branch to case1 (fallthrough).
        let case0 = f.blocks.iter().position(|b| b.name == "switch.case0").unwrap();
        let case1 = f.blocks.iter().position(|b| b.name == "switch.case1").unwrap();
        assert_eq!(f.blocks[case0].terminator, Terminator::Br(BlockId(case1 as u32)));
    }

    #[test]
    fn string_literal_becomes_global() {
        let m = lower_ok(r#"void log2(char *s); void f(void) { log2("hi"); }"#);
        assert!(m.globals.iter().any(|g| g.name.as_str().starts_with("__str_")));
    }

    #[test]
    fn globals_registered_with_types() {
        let m = lower_ok("typedef struct { float c; } D;\nD *noncoreCtrl;\nint counter = 3;");
        let g = m.global(m.global_by_name("noncoreCtrl".into()).unwrap());
        assert!(m.types.is_ptr(g.ty));
        let c = m.global(m.global_by_name("counter".into()).unwrap());
        assert!(c.has_init);
    }

    #[test]
    fn unknown_type_reports_error() {
        let pr = parse_source("t.c", "void f(void) { Mystery x; }");
        // `Mystery x;` parses as expression statement `Mystery` then errors;
        // either way the pipeline reports and does not panic.
        let mut diags = Diagnostics::new();
        let _ = lower(&pr.unit, &mut diags);
        assert!(pr.diags.has_errors() || diags.has_errors());
    }

    #[test]
    fn break_outside_loop_reports_error() {
        let pr = parse_source("t.c", "void f(void) { break; }");
        assert!(!pr.diags.has_errors());
        let mut diags = Diagnostics::new();
        let _ = lower(&pr.unit, &mut diags);
        assert!(diags.has_errors());
    }

    #[test]
    fn figure2_lowered_end_to_end() {
        let m = lower_ok(
            r#"
            typedef struct { float control; float track; float angle; } SHMData;
            SHMData *noncoreCtrl;
            SHMData *feedback;
            int shmget(int key, int size, int flags);
            void *shmat(int shmid, void *addr, int flags);
            int checkSafety(SHMData *fb, SHMData *ctrl);
            void sendControl(float output);

            float decision(SHMData *f, float safeControl, SHMData *ctrl)
            /***SafeFlow Annotation
                assume(core(noncoreCtrl, 0, sizeof(SHMData))) /***/
            {
                if (checkSafety(feedback, noncoreCtrl))
                    return noncoreCtrl->control;
                else
                    return safeControl;
            }

            int main() {
                void *shmStart;
                int shmid;
                float safeControl;
                float output;
                shmid = shmget(42, 2 * sizeof(SHMData), 0);
                shmStart = shmat(shmid, 0, 0);
                feedback = (SHMData *) shmStart;
                noncoreCtrl = feedback + 1;
                output = decision(feedback, safeControl, noncoreCtrl);
                /**SafeFlow Annotation assert(safe(output)); /***/
                sendControl(output);
                return 0;
            }
            "#,
        );
        let dec = m.function(m.function_by_name("decision".into()).unwrap());
        assert_eq!(dec.annotations.len(), 1);
        let main = m.function(m.function_by_name("main".into()).unwrap());
        assert!(main
            .insts
            .iter()
            .any(|i| matches!(&i.kind, InstKind::AssertSafe { var, .. } if var == "output")));
        // The cast `(SHMData*) shmStart` must appear as a PtrToPtr cast.
        assert!(main
            .insts
            .iter()
            .any(|i| matches!(&i.kind, InstKind::Cast { kind: CastKind::PtrToPtr, .. })));
    }
}
