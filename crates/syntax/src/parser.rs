//! Recursive-descent parser for the C subset.
//!
//! Consumes the preprocessed token stream and produces a
//! [`TranslationUnit`]. The parser tracks typedef names to disambiguate
//! declarations from expressions, hoists inline `struct` definitions to
//! top-level items, and attaches SafeFlow annotations to functions
//! (header position) or statements (block-item position).
//!
//! Nodes are appended to the unit's [`Ast`] arena as they are reduced, so
//! parsing allocates a handful of growing `Vec`s instead of one `Box` per
//! node; names stay interned [`Symbol`]s straight from the lexer.
//!
//! The subset is the one the paper's language restrictions (§3.2) already
//! demand: no function pointers, no `goto`, no K&R declarations.

use crate::annot::{parse_annotation_body, Annotation};
use crate::ast::*;
use crate::diag::Diagnostics;
use crate::source::SourceMap;
use crate::span::Span;
use crate::token::{Keyword, Punct, Token, TokenKind};
use safeflow_util::hash::StableSet;
use safeflow_util::Symbol;

/// Parses a preprocessed token stream into a translation unit.
///
/// Errors are reported to `diags`; the parser recovers at item boundaries so
/// a best-effort AST is always returned.
pub fn parse(
    tokens: Vec<Token>,
    sources: &mut SourceMap,
    diags: &mut Diagnostics,
) -> TranslationUnit {
    let mut parser = Parser {
        ast: Ast::for_tokens(tokens.len()),
        tokens,
        pos: 0,
        sources,
        diags,
        typedefs: StableSet::default(),
        anon_counter: 0,
        hoisted: Vec::new(),
        pending_fn: None,
        expr_depth: 0,
    };
    parser.parse_translation_unit()
}

struct Parser<'a> {
    tokens: Vec<Token>,
    pos: usize,
    sources: &'a mut SourceMap,
    diags: &'a mut Diagnostics,
    /// Node arena for the unit being built.
    ast: Ast,
    typedefs: StableSet<Symbol>,
    anon_counter: u32,
    /// Struct/enum definitions encountered inline, hoisted before the
    /// current item.
    hoisted: Vec<Item>,
    /// Side channel from `parse_declarator_suffix` to its callers: when a
    /// declarator turns out to be a function, its `(return type, params,
    /// varargs)` is stashed here and the returned type is a marker.
    pending_fn: Option<(TypeId, Vec<Param>, bool)>,
    /// Current expression nesting depth, bounded to keep recursive descent
    /// from overflowing the stack on adversarial input.
    expr_depth: u32,
}

/// Maximum expression nesting depth accepted by the parser.
const MAX_EXPR_DEPTH: u32 = 64;

impl<'a> Parser<'a> {
    // ----- token plumbing -------------------------------------------------

    fn peek(&self) -> &Token {
        &self.tokens[self.pos.min(self.tokens.len() - 1)]
    }

    fn peek_kind(&self) -> &TokenKind {
        &self.peek().kind
    }

    fn peek_nth(&self, n: usize) -> &TokenKind {
        &self.tokens[(self.pos + n).min(self.tokens.len() - 1)].kind
    }

    fn span(&self) -> Span {
        self.peek().span
    }

    fn bump(&mut self) -> Token {
        let t = self.tokens[self.pos.min(self.tokens.len() - 1)];
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn at_eof(&self) -> bool {
        matches!(self.peek_kind(), TokenKind::Eof)
    }

    fn eat_punct(&mut self, p: Punct) -> bool {
        if self.peek().is_punct(p) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn eat_keyword(&mut self, k: Keyword) -> bool {
        if self.peek().is_keyword(k) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, p: Punct) -> Span {
        if self.peek().is_punct(p) {
            self.bump().span
        } else {
            let sp = self.span();
            self.diags.error(
                sp,
                format!("expected `{}`, found {}", p.as_str(), self.peek_kind().describe()),
            );
            sp
        }
    }

    fn expect_ident(&mut self) -> (Symbol, Span) {
        if let TokenKind::Ident(s) = *self.peek_kind() {
            let sp = self.bump().span;
            (s, sp)
        } else {
            let sp = self.span();
            self.diags
                .error(sp, format!("expected identifier, found {}", self.peek_kind().describe()));
            (Symbol::intern("<error>"), sp)
        }
    }

    // ----- arena plumbing -------------------------------------------------

    fn alloc_expr(&mut self, kind: ExprKind, span: Span) -> ExprId {
        self.ast.alloc_expr(Expr::new(kind, span))
    }

    fn alloc_stmt(&mut self, kind: StmtKind, span: Span) -> StmtId {
        self.ast.alloc_stmt(Stmt { kind, span })
    }

    fn espan(&self, id: ExprId) -> Span {
        self.ast.expr(id).span
    }

    /// Skips tokens until a likely item boundary (`;` or `}` at depth 0).
    fn recover_to_item_boundary(&mut self) {
        let mut depth = 0i32;
        while !self.at_eof() {
            match self.peek_kind() {
                TokenKind::Punct(Punct::LBrace) => depth += 1,
                TokenKind::Punct(Punct::RBrace) => {
                    depth -= 1;
                    if depth <= 0 {
                        self.bump();
                        return;
                    }
                }
                TokenKind::Punct(Punct::Semi) if depth == 0 => {
                    self.bump();
                    return;
                }
                _ => {}
            }
            self.bump();
        }
    }

    fn fresh_anon_name(&mut self, what: &str) -> Symbol {
        self.anon_counter += 1;
        Symbol::intern(&format!("__anon_{what}_{}", self.anon_counter))
    }

    // ----- type recognition ----------------------------------------------

    /// Whether the token at offset `n` can start a declaration.
    fn starts_type_at(&self, n: usize) -> bool {
        match self.peek_nth(n) {
            TokenKind::Keyword(k) => matches!(
                k,
                Keyword::Void
                    | Keyword::Char
                    | Keyword::Short
                    | Keyword::Int
                    | Keyword::Long
                    | Keyword::Float
                    | Keyword::Double
                    | Keyword::Signed
                    | Keyword::Unsigned
                    | Keyword::Struct
                    | Keyword::Union
                    | Keyword::Enum
                    | Keyword::Const
                    | Keyword::Volatile
                    | Keyword::Static
                    | Keyword::Extern
                    | Keyword::Typedef
            ),
            TokenKind::Ident(s) => self.typedefs.contains(s),
            _ => false,
        }
    }

    fn starts_type(&self) -> bool {
        self.starts_type_at(0)
    }

    // ----- translation unit ----------------------------------------------

    fn parse_translation_unit(&mut self) -> TranslationUnit {
        let mut items = Vec::new();
        let mut pending_annotations: Vec<Annotation> = Vec::new();
        while !self.at_eof() {
            if let TokenKind::Annotation(body) = *self.peek_kind() {
                let sp = self.bump().span;
                let anns = parse_annotation_body(body.as_str(), sp, self.sources, self.diags);
                pending_annotations.extend(anns);
                continue;
            }
            if self.eat_punct(Punct::Semi) {
                continue;
            }
            let before = self.pos;
            match self.parse_item(std::mem::take(&mut pending_annotations)) {
                Some(new_items) => items.extend(new_items),
                None => {
                    self.recover_to_item_boundary();
                }
            }
            if self.pos == before {
                // Safety net against non-advancing loops.
                self.bump();
            }
        }
        if !pending_annotations.is_empty() {
            self.diags.error(
                pending_annotations[0].span(),
                "dangling SafeFlow annotation at end of file",
            );
        }
        TranslationUnit { items, ast: std::mem::take(&mut self.ast) }
    }

    /// Parses one top-level item (plus any hoisted inline definitions).
    fn parse_item(&mut self, leading_annotations: Vec<Annotation>) -> Option<Vec<Item>> {
        let start = self.span();
        let mut storage = Storage::None;
        let mut is_typedef = false;

        // Storage class specifiers (may precede the type).
        loop {
            if self.eat_keyword(Keyword::Typedef) {
                is_typedef = true;
            } else if self.eat_keyword(Keyword::Static) {
                storage = Storage::Static;
            } else if self.eat_keyword(Keyword::Extern) {
                storage = Storage::Extern;
            } else {
                break;
            }
        }

        let base = self.parse_type_specifier()?;

        // Bare `struct S { ... };` / `enum E { ... };` definitions.
        if self.peek().is_punct(Punct::Semi) && !is_typedef {
            self.bump();
            let mut items = std::mem::take(&mut self.hoisted);
            if items.is_empty() {
                self.diags.warning(start, "declaration declares nothing");
            }
            return Some(std::mem::take(&mut items));
        }

        if is_typedef {
            let (ty, name, sp) = self.parse_declarator(base)?;
            if self.pending_fn.take().is_some() {
                self.diags.error(sp, "typedefs of function types are not supported (no function pointers in the restricted subset)");
                return None;
            }
            self.expect_punct(Punct::Semi);
            self.typedefs.insert(name);
            let mut items = std::mem::take(&mut self.hoisted);
            items.push(Item::Typedef(Typedef { name, ty, span: start }));
            return Some(items);
        }

        // First declarator decides function vs variable.
        let (ty, name, declarator_span) = self.parse_declarator(base)?;

        // Function definition or prototype: declarator parsed parameter list.
        if let Some((ret, params, varargs)) = self.pending_fn.take() {
            let _ = ty; // the marker type; the real signature came through the side channel
            let mut annotations = leading_annotations;
            // Header-position annotations (Figure 2 style: between the
            // declarator and the `{`).
            while let TokenKind::Annotation(body) = *self.peek_kind() {
                let sp = self.bump().span;
                annotations.extend(parse_annotation_body(
                    body.as_str(),
                    sp,
                    self.sources,
                    self.diags,
                ));
            }
            let body = if self.peek().is_punct(Punct::LBrace) {
                Some(self.parse_block()?)
            } else {
                self.expect_punct(Punct::Semi);
                None
            };
            let mut items = std::mem::take(&mut self.hoisted);
            items.push(Item::Func(FuncDef {
                name,
                ret,
                params,
                varargs,
                body,
                annotations,
                storage,
                span: declarator_span,
            }));
            return Some(items);
        }

        if !leading_annotations.is_empty() {
            self.diags.error(
                leading_annotations[0].span(),
                "SafeFlow annotations may only precede functions or statements",
            );
        }

        // Global variable(s).
        let mut items = std::mem::take(&mut self.hoisted);
        let mut decl_ty = ty;
        let mut decl_name = name;
        let mut decl_span = declarator_span;
        loop {
            let init =
                if self.eat_punct(Punct::Assign) { Some(self.parse_initializer()?) } else { None };
            items.push(Item::Global(VarDecl {
                name: decl_name,
                ty: decl_ty,
                init,
                storage,
                span: decl_span,
            }));
            if self.eat_punct(Punct::Comma) {
                let (t, n, sp) = self.parse_declarator(base)?;
                if self.pending_fn.take().is_some() {
                    self.diags
                        .error(sp, "function declarator in multi-declarator list is not supported");
                    return None;
                }
                decl_ty = t;
                decl_name = n;
                decl_span = sp;
            } else {
                self.expect_punct(Punct::Semi);
                break;
            }
        }
        Some(items)
    }

    // ----- types and declarators -----------------------------------------

    /// Parses decl-specifiers (without storage classes) into a base type.
    fn parse_type_specifier(&mut self) -> Option<TypeId> {
        let start = self.span();
        // Skip qualifiers.
        while self.eat_keyword(Keyword::Const) || self.eat_keyword(Keyword::Volatile) {}

        if self.eat_keyword(Keyword::Struct) || {
            if self.peek().is_keyword(Keyword::Union) {
                self.bump();
                return self.parse_struct_or_union_body(true, start);
            }
            false
        } {
            return self.parse_struct_or_union_body(false, start);
        }
        if self.eat_keyword(Keyword::Enum) {
            return self.parse_enum_body(start);
        }

        let mut signed: Option<Signedness> = None;
        let mut base: Option<TypeExprKind> = None;
        let mut long_count = 0u8;
        loop {
            match self.peek_kind() {
                TokenKind::Keyword(Keyword::Signed) => {
                    signed = Some(Signedness::Signed);
                    self.bump();
                }
                TokenKind::Keyword(Keyword::Unsigned) => {
                    signed = Some(Signedness::Unsigned);
                    self.bump();
                }
                TokenKind::Keyword(Keyword::Void) => {
                    base = Some(TypeExprKind::Void);
                    self.bump();
                }
                TokenKind::Keyword(Keyword::Char) => {
                    base = Some(TypeExprKind::Char(Signedness::Signed));
                    self.bump();
                }
                TokenKind::Keyword(Keyword::Short) => {
                    base = Some(TypeExprKind::Short(Signedness::Signed));
                    self.bump();
                }
                TokenKind::Keyword(Keyword::Int) => {
                    if base.is_none() {
                        base = Some(TypeExprKind::Int(Signedness::Signed));
                    }
                    self.bump();
                }
                TokenKind::Keyword(Keyword::Long) => {
                    long_count += 1;
                    self.bump();
                }
                TokenKind::Keyword(Keyword::Float) => {
                    base = Some(TypeExprKind::Float);
                    self.bump();
                }
                TokenKind::Keyword(Keyword::Double) => {
                    base = Some(TypeExprKind::Double);
                    self.bump();
                }
                TokenKind::Keyword(Keyword::Const) | TokenKind::Keyword(Keyword::Volatile) => {
                    self.bump();
                }
                _ => break,
            }
        }

        if base.is_none() && long_count == 0 && signed.is_none() {
            // Typedef name?
            if let TokenKind::Ident(s) = *self.peek_kind() {
                if self.typedefs.contains(&s) {
                    let sp = self.bump().span;
                    return Some(self.ast.alloc_type(TypeExpr::new(TypeExprKind::Named(s), sp)));
                }
            }
            self.diags.error(
                self.span(),
                format!("expected type, found {}", self.peek_kind().describe()),
            );
            return None;
        }

        let s = signed.unwrap_or(Signedness::Signed);
        let kind = if long_count > 0 {
            TypeExprKind::Long(s)
        } else {
            match base {
                Some(TypeExprKind::Char(_)) => TypeExprKind::Char(s),
                Some(TypeExprKind::Short(_)) => TypeExprKind::Short(s),
                Some(TypeExprKind::Int(_)) | None => TypeExprKind::Int(s),
                Some(other) => other,
            }
        };
        let span = start.to(self.span());
        Some(self.ast.alloc_type(TypeExpr::new(kind, span)))
    }

    fn parse_struct_or_union_body(&mut self, is_union: bool, start: Span) -> Option<TypeId> {
        let name = if let TokenKind::Ident(s) = *self.peek_kind() {
            self.bump();
            s
        } else {
            self.fresh_anon_name(if is_union { "union" } else { "struct" })
        };
        if self.eat_punct(Punct::LBrace) {
            let mut fields = Vec::new();
            while !self.peek().is_punct(Punct::RBrace) && !self.at_eof() {
                let base = self.parse_type_specifier()?;
                loop {
                    let (fty, fname, fsp) = self.parse_declarator(base)?;
                    if self.pending_fn.take().is_some() {
                        self.diags.error(
                            fsp,
                            "function members are not supported in the restricted subset",
                        );
                        return None;
                    }
                    fields.push(Field { name: fname, ty: fty, span: fsp });
                    if !self.eat_punct(Punct::Comma) {
                        break;
                    }
                }
                self.expect_punct(Punct::Semi);
            }
            self.expect_punct(Punct::RBrace);
            self.hoisted.push(Item::Struct(StructDef { name, fields, is_union, span: start }));
        }
        let kind = if is_union { TypeExprKind::Union(name) } else { TypeExprKind::Struct(name) };
        Some(self.ast.alloc_type(TypeExpr::new(kind, start)))
    }

    fn parse_enum_body(&mut self, start: Span) -> Option<TypeId> {
        let name = if let TokenKind::Ident(s) = *self.peek_kind() {
            self.bump();
            Some(s)
        } else {
            None
        };
        if self.eat_punct(Punct::LBrace) {
            let mut variants = Vec::new();
            while !self.peek().is_punct(Punct::RBrace) && !self.at_eof() {
                let (vname, vsp) = self.expect_ident();
                let value = if self.eat_punct(Punct::Assign) {
                    Some(self.parse_conditional_expr()?)
                } else {
                    None
                };
                variants.push((vname, value, vsp));
                if !self.eat_punct(Punct::Comma) {
                    break;
                }
            }
            self.expect_punct(Punct::RBrace);
            self.hoisted.push(Item::Enum(EnumDef { name, variants, span: start }));
        }
        let tag = name.unwrap_or_else(|| self.fresh_anon_name("enum"));
        Some(self.ast.alloc_type(TypeExpr::new(TypeExprKind::Enum(tag), start)))
    }

    /// Parses `'*'* ident suffix*` against `base`, returning the full type,
    /// the declared name, and its span.
    fn parse_declarator(&mut self, base: TypeId) -> Option<(TypeId, Symbol, Span)> {
        let mut ty = base;
        while self.eat_punct(Punct::Star) {
            // Qualifiers after '*' (e.g. `int * const p`).
            while self.eat_keyword(Keyword::Const) || self.eat_keyword(Keyword::Volatile) {}
            ty = self.ast.ptr_to(ty);
        }
        let (name, name_span) = self.expect_ident();
        self.parse_declarator_suffix(ty, name, name_span)
    }

    fn parse_declarator_suffix(
        &mut self,
        mut ty: TypeId,
        name: Symbol,
        name_span: Span,
    ) -> Option<(TypeId, Symbol, Span)> {
        // Function declarator.
        if self.peek().is_punct(Punct::LParen) {
            self.bump();
            let mut params = Vec::new();
            let mut varargs = false;
            if !self.peek().is_punct(Punct::RParen) {
                loop {
                    if self.eat_punct(Punct::Ellipsis) {
                        varargs = true;
                        break;
                    }
                    if self.peek().is_keyword(Keyword::Void)
                        && self.peek_nth(1) == &TokenKind::Punct(Punct::RParen)
                    {
                        self.bump();
                        break;
                    }
                    let pbase = self.parse_type_specifier()?;
                    let mut pty = pbase;
                    while self.eat_punct(Punct::Star) {
                        while self.eat_keyword(Keyword::Const)
                            || self.eat_keyword(Keyword::Volatile)
                        {}
                        pty = self.ast.ptr_to(pty);
                    }
                    let (pname, psp) = if let TokenKind::Ident(s) = *self.peek_kind() {
                        let sp = self.bump().span;
                        (s, sp)
                    } else {
                        (Symbol::intern(""), self.span())
                    };
                    // Array parameters decay to pointers.
                    while self.eat_punct(Punct::LBracket) {
                        // Discard the size; parameter arrays are pointers.
                        if !self.peek().is_punct(Punct::RBracket) {
                            let _ = self.parse_conditional_expr()?;
                        }
                        self.expect_punct(Punct::RBracket);
                        pty = self.ast.ptr_to(pty);
                    }
                    params.push(Param { name: pname, ty: pty, span: psp });
                    if !self.eat_punct(Punct::Comma) {
                        break;
                    }
                }
            }
            self.expect_punct(Punct::RParen);
            // Represent the function declarator by a sentinel type node; the
            // real signature travels through `pending_fn`.
            let fn_ty = self.ast.alloc_type(TypeExpr::new(
                TypeExprKind::Struct(Symbol::intern(FUNC_MARKER)),
                name_span,
            ));
            // Stash params/ret through the side channel.
            self.pending_fn = Some((ty, params, varargs));
            return Some((fn_ty, name, name_span));
        }
        // Array suffixes.
        let mut dims = Vec::new();
        while self.eat_punct(Punct::LBracket) {
            let size = if self.peek().is_punct(Punct::RBracket) {
                None
            } else {
                Some(self.parse_conditional_expr()?)
            };
            self.expect_punct(Punct::RBracket);
            dims.push(size);
        }
        for size in dims.into_iter().rev() {
            let sp = self.ast.type_expr(ty).span;
            ty = self.ast.alloc_type(TypeExpr::new(TypeExprKind::Array(ty, size), sp));
        }
        Some((ty, name, name_span))
    }

    fn parse_initializer(&mut self) -> Option<InitId> {
        if self.peek().is_punct(Punct::LBrace) {
            let start = self.bump().span;
            let mut items = Vec::new();
            while !self.peek().is_punct(Punct::RBrace) && !self.at_eof() {
                items.push(self.parse_initializer()?);
                if !self.eat_punct(Punct::Comma) {
                    break;
                }
            }
            let end = self.expect_punct(Punct::RBrace);
            Some(self.ast.alloc_init(Initializer::List(items, start.to(end))))
        } else {
            let e = self.parse_assignment_expr()?;
            Some(self.ast.alloc_init(Initializer::Expr(e)))
        }
    }

    // ----- statements ------------------------------------------------------

    fn parse_block(&mut self) -> Option<Block> {
        let start = self.expect_punct(Punct::LBrace);
        let mut items = Vec::new();
        while !self.peek().is_punct(Punct::RBrace) && !self.at_eof() {
            match self.parse_stmt() {
                Some(s) => items.push(s),
                None => {
                    self.recover_in_block();
                }
            }
        }
        let end = self.expect_punct(Punct::RBrace);
        Some(Block { items, span: start.to(end) })
    }

    /// Error recovery inside a block: skip to after the next `;`, or stop at
    /// `}`.
    fn recover_in_block(&mut self) {
        let mut depth = 0i32;
        while !self.at_eof() {
            match self.peek_kind() {
                TokenKind::Punct(Punct::Semi) if depth == 0 => {
                    self.bump();
                    return;
                }
                TokenKind::Punct(Punct::LBrace) => depth += 1,
                TokenKind::Punct(Punct::RBrace) => {
                    if depth == 0 {
                        return;
                    }
                    depth -= 1;
                }
                _ => {}
            }
            self.bump();
        }
    }

    fn parse_stmt(&mut self) -> Option<StmtId> {
        let start = self.span();
        match *self.peek_kind() {
            TokenKind::Annotation(body) => {
                let sp = self.bump().span;
                let anns = parse_annotation_body(body.as_str(), sp, self.sources, self.diags);
                // Several annotations in one comment become several
                // annotation statements; wrap in a block when needed.
                let mut stmts: Vec<StmtId> = anns
                    .into_iter()
                    .map(|a| self.alloc_stmt(StmtKind::Annotation(a), sp))
                    .collect();
                match stmts.len() {
                    0 => Some(self.alloc_stmt(StmtKind::Empty, sp)),
                    1 => Some(stmts.pop().unwrap()),
                    _ => {
                        Some(self.alloc_stmt(StmtKind::Block(Block { items: stmts, span: sp }), sp))
                    }
                }
            }
            TokenKind::Punct(Punct::LBrace) => {
                let b = self.parse_block()?;
                let sp = b.span;
                Some(self.alloc_stmt(StmtKind::Block(b), sp))
            }
            TokenKind::Punct(Punct::Semi) => {
                self.bump();
                Some(self.alloc_stmt(StmtKind::Empty, start))
            }
            TokenKind::Keyword(Keyword::If) => {
                self.bump();
                self.expect_punct(Punct::LParen);
                let cond = self.parse_expr()?;
                self.expect_punct(Punct::RParen);
                let then = self.parse_stmt()?;
                let els =
                    if self.eat_keyword(Keyword::Else) { Some(self.parse_stmt()?) } else { None };
                Some(self.alloc_stmt(StmtKind::If { cond, then, els }, start))
            }
            TokenKind::Keyword(Keyword::While) => {
                self.bump();
                self.expect_punct(Punct::LParen);
                let cond = self.parse_expr()?;
                self.expect_punct(Punct::RParen);
                let body = self.parse_stmt()?;
                Some(self.alloc_stmt(StmtKind::While { cond, body }, start))
            }
            TokenKind::Keyword(Keyword::Do) => {
                self.bump();
                let body = self.parse_stmt()?;
                if !self.eat_keyword(Keyword::While) {
                    self.diags.error(self.span(), "expected `while` after do-body");
                    return None;
                }
                self.expect_punct(Punct::LParen);
                let cond = self.parse_expr()?;
                self.expect_punct(Punct::RParen);
                self.expect_punct(Punct::Semi);
                Some(self.alloc_stmt(StmtKind::DoWhile { body, cond }, start))
            }
            TokenKind::Keyword(Keyword::For) => {
                self.bump();
                self.expect_punct(Punct::LParen);
                let init = if self.peek().is_punct(Punct::Semi) {
                    self.bump();
                    None
                } else if self.starts_type() {
                    Some(self.parse_local_decl()?)
                } else {
                    let e = self.parse_expr()?;
                    self.expect_punct(Punct::Semi);
                    Some(self.alloc_stmt(StmtKind::Expr(e), start))
                };
                let cond =
                    if self.peek().is_punct(Punct::Semi) { None } else { Some(self.parse_expr()?) };
                self.expect_punct(Punct::Semi);
                let step = if self.peek().is_punct(Punct::RParen) {
                    None
                } else {
                    Some(self.parse_expr()?)
                };
                self.expect_punct(Punct::RParen);
                let body = self.parse_stmt()?;
                Some(self.alloc_stmt(StmtKind::For { init, cond, step, body }, start))
            }
            TokenKind::Keyword(Keyword::Switch) => {
                self.bump();
                self.expect_punct(Punct::LParen);
                let scrutinee = self.parse_expr()?;
                self.expect_punct(Punct::RParen);
                self.expect_punct(Punct::LBrace);
                let mut cases: Vec<SwitchCase> = Vec::new();
                while !self.peek().is_punct(Punct::RBrace) && !self.at_eof() {
                    if self.eat_keyword(Keyword::Case) {
                        let label_span = start;
                        let label = self.parse_conditional_expr()?;
                        self.expect_punct(Punct::Colon);
                        cases.push(SwitchCase {
                            label: Some(label),
                            stmts: Vec::new(),
                            span: label_span,
                        });
                    } else if self.eat_keyword(Keyword::Default) {
                        self.expect_punct(Punct::Colon);
                        cases.push(SwitchCase { label: None, stmts: Vec::new(), span: start });
                    } else {
                        let s = self.parse_stmt()?;
                        match cases.last_mut() {
                            Some(c) => c.stmts.push(s),
                            None => {
                                let sp = self.ast.stmt(s).span;
                                self.diags.error(sp, "statement in switch before any case label");
                            }
                        }
                    }
                }
                self.expect_punct(Punct::RBrace);
                Some(self.alloc_stmt(StmtKind::Switch { scrutinee, cases }, start))
            }
            TokenKind::Keyword(Keyword::Return) => {
                self.bump();
                let value =
                    if self.peek().is_punct(Punct::Semi) { None } else { Some(self.parse_expr()?) };
                self.expect_punct(Punct::Semi);
                Some(self.alloc_stmt(StmtKind::Return(value), start))
            }
            TokenKind::Keyword(Keyword::Break) => {
                self.bump();
                self.expect_punct(Punct::Semi);
                Some(self.alloc_stmt(StmtKind::Break, start))
            }
            TokenKind::Keyword(Keyword::Continue) => {
                self.bump();
                self.expect_punct(Punct::Semi);
                Some(self.alloc_stmt(StmtKind::Continue, start))
            }
            TokenKind::Keyword(Keyword::Goto) => {
                self.diags.error(start, "`goto` is not part of the restricted C subset");
                None
            }
            _ if self.starts_type() => self.parse_local_decl(),
            _ => {
                let e = self.parse_expr()?;
                self.expect_punct(Punct::Semi);
                Some(self.alloc_stmt(StmtKind::Expr(e), start))
            }
        }
    }

    /// Parses a local declaration statement; multiple declarators become a
    /// block of single declarations.
    fn parse_local_decl(&mut self) -> Option<StmtId> {
        let start = self.span();
        let mut storage = Storage::None;
        loop {
            if self.eat_keyword(Keyword::Static) {
                storage = Storage::Static;
            } else if self.eat_keyword(Keyword::Extern) {
                storage = Storage::Extern;
            } else if self.peek().is_keyword(Keyword::Typedef) {
                self.diags.error(start, "local typedefs are not supported");
                return None;
            } else {
                break;
            }
        }
        let base = self.parse_type_specifier()?;
        let mut decls = Vec::new();
        loop {
            let (ty, name, sp) = self.parse_declarator(base)?;
            if matches!(self.ast.type_expr(ty).kind, TypeExprKind::Struct(s) if s == FUNC_MARKER) {
                self.diags.error(sp, "function declarations are not allowed inside functions");
                self.pending_fn = None;
                return None;
            }
            let init =
                if self.eat_punct(Punct::Assign) { Some(self.parse_initializer()?) } else { None };
            decls.push(
                self.alloc_stmt(StmtKind::Decl(VarDecl { name, ty, init, storage, span: sp }), sp),
            );
            if !self.eat_punct(Punct::Comma) {
                break;
            }
        }
        self.expect_punct(Punct::Semi);
        if decls.len() == 1 {
            decls.pop()
        } else {
            Some(self.alloc_stmt(StmtKind::Block(Block { items: decls, span: start }), start))
        }
    }

    // ----- expressions -----------------------------------------------------

    fn parse_expr(&mut self) -> Option<ExprId> {
        let mut lhs = self.parse_assignment_expr()?;
        while self.eat_punct(Punct::Comma) {
            let rhs = self.parse_assignment_expr()?;
            let span = self.espan(lhs).to(self.espan(rhs));
            lhs = self.alloc_expr(ExprKind::Comma(lhs, rhs), span);
        }
        Some(lhs)
    }

    fn parse_assignment_expr(&mut self) -> Option<ExprId> {
        let lhs = self.parse_conditional_expr()?;
        let op = match self.peek_kind() {
            TokenKind::Punct(Punct::Assign) => Some(None),
            TokenKind::Punct(Punct::PlusAssign) => Some(Some(BinOp::Add)),
            TokenKind::Punct(Punct::MinusAssign) => Some(Some(BinOp::Sub)),
            TokenKind::Punct(Punct::StarAssign) => Some(Some(BinOp::Mul)),
            TokenKind::Punct(Punct::SlashAssign) => Some(Some(BinOp::Div)),
            TokenKind::Punct(Punct::PercentAssign) => Some(Some(BinOp::Rem)),
            TokenKind::Punct(Punct::ShlAssign) => Some(Some(BinOp::Shl)),
            TokenKind::Punct(Punct::ShrAssign) => Some(Some(BinOp::Shr)),
            TokenKind::Punct(Punct::AmpAssign) => Some(Some(BinOp::BitAnd)),
            TokenKind::Punct(Punct::CaretAssign) => Some(Some(BinOp::BitXor)),
            TokenKind::Punct(Punct::PipeAssign) => Some(Some(BinOp::BitOr)),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let rhs = self.parse_assignment_expr()?;
            let span = self.espan(lhs).to(self.espan(rhs));
            return Some(self.alloc_expr(ExprKind::Assign { op, lhs, rhs }, span));
        }
        Some(lhs)
    }

    fn parse_conditional_expr(&mut self) -> Option<ExprId> {
        let cond = self.parse_binary_expr(0)?;
        if self.eat_punct(Punct::Question) {
            let then = self.parse_expr()?;
            self.expect_punct(Punct::Colon);
            let els = self.parse_conditional_expr()?;
            let span = self.espan(cond).to(self.espan(els));
            return Some(self.alloc_expr(ExprKind::Conditional { cond, then, els }, span));
        }
        Some(cond)
    }

    /// Precedence climbing for binary operators. `min_prec` is the minimum
    /// binding power to accept.
    fn parse_binary_expr(&mut self, min_prec: u8) -> Option<ExprId> {
        let mut lhs = self.parse_cast_expr()?;
        loop {
            let (prec, kind) = match self.peek_kind() {
                TokenKind::Punct(Punct::PipePipe) => (1, BinKind::Or),
                TokenKind::Punct(Punct::AmpAmp) => (2, BinKind::And),
                TokenKind::Punct(Punct::Pipe) => (3, BinKind::Op(BinOp::BitOr)),
                TokenKind::Punct(Punct::Caret) => (4, BinKind::Op(BinOp::BitXor)),
                TokenKind::Punct(Punct::Amp) => (5, BinKind::Op(BinOp::BitAnd)),
                TokenKind::Punct(Punct::EqEq) => (6, BinKind::Op(BinOp::Eq)),
                TokenKind::Punct(Punct::Ne) => (6, BinKind::Op(BinOp::Ne)),
                TokenKind::Punct(Punct::Lt) => (7, BinKind::Op(BinOp::Lt)),
                TokenKind::Punct(Punct::Le) => (7, BinKind::Op(BinOp::Le)),
                TokenKind::Punct(Punct::Gt) => (7, BinKind::Op(BinOp::Gt)),
                TokenKind::Punct(Punct::Ge) => (7, BinKind::Op(BinOp::Ge)),
                TokenKind::Punct(Punct::Shl) => (8, BinKind::Op(BinOp::Shl)),
                TokenKind::Punct(Punct::Shr) => (8, BinKind::Op(BinOp::Shr)),
                TokenKind::Punct(Punct::Plus) => (9, BinKind::Op(BinOp::Add)),
                TokenKind::Punct(Punct::Minus) => (9, BinKind::Op(BinOp::Sub)),
                TokenKind::Punct(Punct::Star) => (10, BinKind::Op(BinOp::Mul)),
                TokenKind::Punct(Punct::Slash) => (10, BinKind::Op(BinOp::Div)),
                TokenKind::Punct(Punct::Percent) => (10, BinKind::Op(BinOp::Rem)),
                _ => break,
            };
            if prec < min_prec {
                break;
            }
            self.bump();
            let rhs = self.parse_binary_expr(prec + 1)?;
            let span = self.espan(lhs).to(self.espan(rhs));
            lhs = match kind {
                BinKind::Op(op) => self.alloc_expr(ExprKind::Binary(op, lhs, rhs), span),
                BinKind::And => self.alloc_expr(ExprKind::LogicalAnd(lhs, rhs), span),
                BinKind::Or => self.alloc_expr(ExprKind::LogicalOr(lhs, rhs), span),
            };
        }
        Some(lhs)
    }

    fn parse_cast_expr(&mut self) -> Option<ExprId> {
        if self.expr_depth >= MAX_EXPR_DEPTH {
            self.diags.error(self.span(), "expression nesting too deep");
            return None;
        }
        self.expr_depth += 1;
        let result = self.parse_cast_expr_inner();
        self.expr_depth -= 1;
        result
    }

    fn parse_cast_expr_inner(&mut self) -> Option<ExprId> {
        // `( type ) expr` — lookahead: '(' followed by a type start.
        if self.peek().is_punct(Punct::LParen) && self.starts_type_at(1) {
            let start = self.bump().span; // '('
            let base = self.parse_type_specifier()?;
            let mut ty = base;
            while self.eat_punct(Punct::Star) {
                ty = self.ast.ptr_to(ty);
            }
            self.expect_punct(Punct::RParen);
            let inner = self.parse_cast_expr()?;
            let span = start.to(self.espan(inner));
            return Some(self.alloc_expr(ExprKind::Cast(ty, inner), span));
        }
        self.parse_unary_expr()
    }

    fn parse_unary_expr(&mut self) -> Option<ExprId> {
        let start = self.span();
        let un = match self.peek_kind() {
            TokenKind::Punct(Punct::Minus) => Some(UnOp::Neg),
            TokenKind::Punct(Punct::Plus) => Some(UnOp::Plus),
            TokenKind::Punct(Punct::Bang) => Some(UnOp::Not),
            TokenKind::Punct(Punct::Tilde) => Some(UnOp::BitNot),
            TokenKind::Punct(Punct::Star) => Some(UnOp::Deref),
            TokenKind::Punct(Punct::Amp) => Some(UnOp::AddrOf),
            _ => None,
        };
        if let Some(op) = un {
            self.bump();
            let inner = self.parse_cast_expr()?;
            let span = start.to(self.espan(inner));
            return Some(self.alloc_expr(ExprKind::Unary(op, inner), span));
        }
        if self.eat_punct(Punct::PlusPlus) {
            let inner = self.parse_unary_expr()?;
            let span = start.to(self.espan(inner));
            return Some(self.alloc_expr(ExprKind::PreIncDec(inner, true), span));
        }
        if self.eat_punct(Punct::MinusMinus) {
            let inner = self.parse_unary_expr()?;
            let span = start.to(self.espan(inner));
            return Some(self.alloc_expr(ExprKind::PreIncDec(inner, false), span));
        }
        if self.peek().is_keyword(Keyword::Sizeof) {
            self.bump();
            if self.peek().is_punct(Punct::LParen) && self.starts_type_at(1) {
                self.bump();
                let base = self.parse_type_specifier()?;
                let mut ty = base;
                while self.eat_punct(Punct::Star) {
                    ty = self.ast.ptr_to(ty);
                }
                let end = self.expect_punct(Punct::RParen);
                return Some(self.alloc_expr(ExprKind::SizeofType(ty), start.to(end)));
            }
            let inner = self.parse_unary_expr()?;
            let span = start.to(self.espan(inner));
            return Some(self.alloc_expr(ExprKind::SizeofExpr(inner), span));
        }
        self.parse_postfix_expr()
    }

    fn parse_postfix_expr(&mut self) -> Option<ExprId> {
        let mut e = self.parse_primary_expr()?;
        loop {
            match self.peek_kind() {
                TokenKind::Punct(Punct::LParen) => {
                    let callee = match &self.ast.expr(e).kind {
                        ExprKind::Ident(name) => *name,
                        _ => {
                            self.diags.error(
                                self.espan(e),
                                "indirect calls are not part of the restricted C subset (no function pointers)",
                            );
                            return None;
                        }
                    };
                    self.bump();
                    let mut args = Vec::new();
                    if !self.peek().is_punct(Punct::RParen) {
                        loop {
                            args.push(self.parse_assignment_expr()?);
                            if !self.eat_punct(Punct::Comma) {
                                break;
                            }
                        }
                    }
                    let end = self.expect_punct(Punct::RParen);
                    let span = self.espan(e).to(end);
                    e = self.alloc_expr(ExprKind::Call { callee, args }, span);
                }
                TokenKind::Punct(Punct::LBracket) => {
                    self.bump();
                    let idx = self.parse_expr()?;
                    let end = self.expect_punct(Punct::RBracket);
                    let span = self.espan(e).to(end);
                    e = self.alloc_expr(ExprKind::Index(e, idx), span);
                }
                TokenKind::Punct(Punct::Dot) => {
                    self.bump();
                    let (field, fsp) = self.expect_ident();
                    let span = self.espan(e).to(fsp);
                    e = self.alloc_expr(ExprKind::Member { base: e, field, arrow: false }, span);
                }
                TokenKind::Punct(Punct::Arrow) => {
                    self.bump();
                    let (field, fsp) = self.expect_ident();
                    let span = self.espan(e).to(fsp);
                    e = self.alloc_expr(ExprKind::Member { base: e, field, arrow: true }, span);
                }
                TokenKind::Punct(Punct::PlusPlus) => {
                    let end = self.bump().span;
                    let span = self.espan(e).to(end);
                    e = self.alloc_expr(ExprKind::PostIncDec(e, true), span);
                }
                TokenKind::Punct(Punct::MinusMinus) => {
                    let end = self.bump().span;
                    let span = self.espan(e).to(end);
                    e = self.alloc_expr(ExprKind::PostIncDec(e, false), span);
                }
                _ => break,
            }
        }
        Some(e)
    }

    fn parse_primary_expr(&mut self) -> Option<ExprId> {
        let start = self.span();
        match *self.peek_kind() {
            TokenKind::IntLit(v) => {
                self.bump();
                Some(self.alloc_expr(ExprKind::IntLit(v), start))
            }
            TokenKind::FloatLit(v) => {
                self.bump();
                Some(self.alloc_expr(ExprKind::FloatLit(v), start))
            }
            TokenKind::CharLit(v) => {
                self.bump();
                Some(self.alloc_expr(ExprKind::CharLit(v), start))
            }
            TokenKind::StrLit(s) => {
                self.bump();
                // Adjacent string literals concatenate; the common single-
                // literal case reuses the lexer's symbol without copying.
                let sym = if matches!(self.peek_kind(), TokenKind::StrLit(_)) {
                    let mut full = s.as_str().to_string();
                    while let TokenKind::StrLit(next) = *self.peek_kind() {
                        full.push_str(next.as_str());
                        self.bump();
                    }
                    Symbol::intern(&full)
                } else {
                    s
                };
                Some(self.alloc_expr(ExprKind::StrLit(sym), start))
            }
            TokenKind::Ident(name) => {
                self.bump();
                Some(self.alloc_expr(ExprKind::Ident(name), start))
            }
            TokenKind::Punct(Punct::LParen) => {
                self.bump();
                let e = self.parse_expr()?;
                self.expect_punct(Punct::RParen);
                Some(e)
            }
            other => {
                self.diags.error(start, format!("expected expression, found {}", other.describe()));
                None
            }
        }
    }
}

/// Sentinel tag used to mark "this declarator was a function" between
/// `parse_declarator_suffix` and its callers; the real signature travels
/// through `Parser::pending_fn`.
const FUNC_MARKER: &str = "__safeflow_function_marker";

enum BinKind {
    Op(BinOp),
    And,
    Or,
}
