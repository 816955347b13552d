//! Abstract syntax tree for the C subset.
//!
//! Nodes live in `Vec`-backed tables inside [`Ast`] and reference each
//! other through 4-byte ids ([`ExprId`], [`StmtId`], [`TypeId`],
//! [`InitId`]) instead of per-node `Box`es; identifiers and literals are
//! interned [`Symbol`]s instead of owned `String`s. One parse therefore
//! performs a handful of `Vec` growths instead of one heap allocation per
//! node, nodes are cache-dense, and ids are `Copy` — consumers walk the
//! tree by indexing the arena owned by the [`TranslationUnit`].
//!
//! Id assignment is a pure function of parse order, so parsing the same
//! token stream twice yields structurally identical (and `==`) arenas.

use crate::annot::Annotation;
use crate::span::Span;
use safeflow_util::Symbol;

/// Index of an expression node in the [`Ast`] expression table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ExprId(u32);

/// Index of a statement node in the [`Ast`] statement table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StmtId(u32);

/// Index of a type-expression node in the [`Ast`] type table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TypeId(u32);

/// Index of an initializer node in the [`Ast`] initializer table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InitId(u32);

/// The node arena backing one translation unit: flat tables the id types
/// index into. Allocation only ever appends, so ids are stable.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Ast {
    exprs: Vec<Expr>,
    stmts: Vec<Stmt>,
    types: Vec<TypeExpr>,
    inits: Vec<Initializer>,
}

impl Ast {
    /// An empty arena sized for a unit of `tokens` tokens. C runs about
    /// 0.49 expressions, 0.15 statements and 0.025 type expressions per
    /// token (over the benchmark corpus), so a parse rarely regrows, and
    /// so copies, a table.
    pub(crate) fn for_tokens(tokens: usize) -> Ast {
        Ast {
            exprs: Vec::with_capacity(tokens / 2 + 1),
            stmts: Vec::with_capacity(tokens / 6 + 1),
            types: Vec::with_capacity(tokens / 32 + 1),
            inits: Vec::new(),
        }
    }

    /// The expression node behind `id`.
    pub fn expr(&self, id: ExprId) -> &Expr {
        &self.exprs[id.0 as usize]
    }

    /// The statement node behind `id`.
    pub fn stmt(&self, id: StmtId) -> &Stmt {
        &self.stmts[id.0 as usize]
    }

    /// The type-expression node behind `id`.
    pub fn type_expr(&self, id: TypeId) -> &TypeExpr {
        &self.types[id.0 as usize]
    }

    /// The initializer node behind `id`.
    pub fn init(&self, id: InitId) -> &Initializer {
        &self.inits[id.0 as usize]
    }

    /// Appends an expression node.
    pub fn alloc_expr(&mut self, e: Expr) -> ExprId {
        self.exprs.push(e);
        ExprId(self.exprs.len() as u32 - 1)
    }

    /// Appends a statement node.
    pub fn alloc_stmt(&mut self, s: Stmt) -> StmtId {
        self.stmts.push(s);
        StmtId(self.stmts.len() as u32 - 1)
    }

    /// Appends a type-expression node.
    pub fn alloc_type(&mut self, t: TypeExpr) -> TypeId {
        self.types.push(t);
        TypeId(self.types.len() as u32 - 1)
    }

    /// Appends an initializer node.
    pub fn alloc_init(&mut self, i: Initializer) -> InitId {
        self.inits.push(i);
        InitId(self.inits.len() as u32 - 1)
    }

    /// Allocates `T*` for an existing type node (same span).
    pub fn ptr_to(&mut self, inner: TypeId) -> TypeId {
        let span = self.type_expr(inner).span;
        self.alloc_type(TypeExpr::new(TypeExprKind::Ptr(inner), span))
    }

    /// Whether `id` is syntactically `void`.
    pub fn is_void(&self, id: TypeId) -> bool {
        self.type_expr(id).kind == TypeExprKind::Void
    }

    /// Total node count across all tables (arena size metric).
    pub fn node_count(&self) -> usize {
        self.exprs.len() + self.stmts.len() + self.types.len() + self.inits.len()
    }
}

/// Whether an integer type is signed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Signedness {
    /// Default/explicitly signed.
    Signed,
    /// Declared `unsigned`.
    Unsigned,
}

/// A syntactic type expression (before semantic resolution).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TypeExpr {
    /// The shape of the type.
    pub kind: TypeExprKind,
    /// Where it was written.
    pub span: Span,
}

impl TypeExpr {
    /// Pairs a kind with its span.
    pub fn new(kind: TypeExprKind, span: Span) -> Self {
        TypeExpr { kind, span }
    }
}

/// Type expression shapes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TypeExprKind {
    /// `void`.
    Void,
    /// `char` / `unsigned char`.
    Char(Signedness),
    /// `short` / `unsigned short`.
    Short(Signedness),
    /// `int` / `unsigned int`.
    Int(Signedness),
    /// `long` / `unsigned long` (also `long long`).
    Long(Signedness),
    /// `float`.
    Float,
    /// `double`.
    Double,
    /// A typedef name.
    Named(Symbol),
    /// `struct Tag`.
    Struct(Symbol),
    /// `union Tag`.
    Union(Symbol),
    /// `enum Tag`.
    Enum(Symbol),
    /// Pointer to another type.
    Ptr(TypeId),
    /// Array with an optional constant size expression.
    Array(TypeId, Option<ExprId>),
}

/// Storage class on a declaration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Storage {
    /// No storage class written.
    #[default]
    None,
    /// `static`.
    Static,
    /// `extern`.
    Extern,
    /// `typedef` (handled structurally, kept for diagnostics).
    Typedef,
}

/// A struct/union field.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Field {
    /// Field name.
    pub name: Symbol,
    /// Field type.
    pub ty: TypeId,
    /// Source location.
    pub span: Span,
}

/// A `struct`/`union` definition.
#[derive(Debug, Clone, PartialEq)]
pub struct StructDef {
    /// Tag name (anonymous structs are given synthetic names by the parser).
    pub name: Symbol,
    /// Declared fields in order.
    pub fields: Vec<Field>,
    /// `true` for `union`.
    pub is_union: bool,
    /// Source location.
    pub span: Span,
}

/// An `enum` definition.
#[derive(Debug, Clone, PartialEq)]
pub struct EnumDef {
    /// Tag name if present.
    pub name: Option<Symbol>,
    /// Enumerators with optional explicit values.
    pub variants: Vec<(Symbol, Option<ExprId>, Span)>,
    /// Source location.
    pub span: Span,
}

/// A `typedef`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Typedef {
    /// New type name.
    pub name: Symbol,
    /// Aliased type.
    pub ty: TypeId,
    /// Source location.
    pub span: Span,
}

/// An initializer: scalar expression or brace list.
#[derive(Debug, Clone, PartialEq)]
pub enum Initializer {
    /// `= expr`.
    Expr(ExprId),
    /// `= { ... }`.
    List(Vec<InitId>, Span),
}

impl Initializer {
    /// Source location of the initializer.
    pub fn span(&self, ast: &Ast) -> Span {
        match self {
            Initializer::Expr(e) => ast.expr(*e).span,
            Initializer::List(_, s) => *s,
        }
    }
}

/// A variable declaration (global or local).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VarDecl {
    /// Variable name.
    pub name: Symbol,
    /// Declared type.
    pub ty: TypeId,
    /// Optional initializer.
    pub init: Option<InitId>,
    /// Storage class.
    pub storage: Storage,
    /// Source location.
    pub span: Span,
}

/// A function parameter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Param {
    /// Parameter name (the empty symbol in prototypes without names).
    pub name: Symbol,
    /// Parameter type.
    pub ty: TypeId,
    /// Source location.
    pub span: Span,
}

/// A function definition or prototype.
#[derive(Debug, Clone, PartialEq)]
pub struct FuncDef {
    /// Function name.
    pub name: Symbol,
    /// Return type.
    pub ret: TypeId,
    /// Parameters in order.
    pub params: Vec<Param>,
    /// `true` if declared with a trailing `...`.
    pub varargs: bool,
    /// Body; `None` for prototypes / extern declarations.
    pub body: Option<Block>,
    /// SafeFlow annotations written at the function header (between the
    /// declarator and `{`, per the paper's Figure 2 style).
    pub annotations: Vec<Annotation>,
    /// Storage class.
    pub storage: Storage,
    /// Source location (of the declarator).
    pub span: Span,
}

/// A `{ ... }` block.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    /// Statements/declarations in order.
    pub items: Vec<StmtId>,
    /// Source location.
    pub span: Span,
}

/// One `case`/`default` arm of a `switch`.
#[derive(Debug, Clone, PartialEq)]
pub struct SwitchCase {
    /// Constant label; `None` is `default`.
    pub label: Option<ExprId>,
    /// Statements until the next label (fallthrough is represented by an
    /// empty tail and handled during lowering).
    pub stmts: Vec<StmtId>,
    /// Source location of the label.
    pub span: Span,
}

/// A statement.
#[derive(Debug, Clone, PartialEq)]
pub struct Stmt {
    /// Statement shape.
    pub kind: StmtKind,
    /// Source location.
    pub span: Span,
}

/// Statement shapes.
#[derive(Debug, Clone, PartialEq)]
pub enum StmtKind {
    /// Expression statement.
    Expr(ExprId),
    /// Local variable declaration.
    Decl(VarDecl),
    /// Nested block.
    Block(Block),
    /// `if (cond) then [else els]`.
    If {
        /// Condition.
        cond: ExprId,
        /// Then-branch.
        then: StmtId,
        /// Optional else-branch.
        els: Option<StmtId>,
    },
    /// `while (cond) body`.
    While {
        /// Condition.
        cond: ExprId,
        /// Loop body.
        body: StmtId,
    },
    /// `do body while (cond);`.
    DoWhile {
        /// Loop body.
        body: StmtId,
        /// Condition.
        cond: ExprId,
    },
    /// `for (init; cond; step) body`.
    For {
        /// Init clause: declaration or expression.
        init: Option<StmtId>,
        /// Optional condition.
        cond: Option<ExprId>,
        /// Optional step expression.
        step: Option<ExprId>,
        /// Loop body.
        body: StmtId,
    },
    /// `switch (scrutinee) { cases }`.
    Switch {
        /// Scrutinee expression.
        scrutinee: ExprId,
        /// Case arms in order.
        cases: Vec<SwitchCase>,
    },
    /// `return [expr];`.
    Return(Option<ExprId>),
    /// `break;`.
    Break,
    /// `continue;`.
    Continue,
    /// A SafeFlow annotation in statement position (e.g. `assert(safe(x))`
    /// before the statement it guards).
    Annotation(Annotation),
    /// `;`.
    Empty,
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// `-`.
    Neg,
    /// `+` (no-op, kept for fidelity).
    Plus,
    /// `!`.
    Not,
    /// `~`.
    BitNot,
    /// `*`.
    Deref,
    /// `&`.
    AddrOf,
}

/// Binary operators (excluding assignment and short-circuit forms, which the
/// AST represents explicitly).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `+`.
    Add,
    /// `-`.
    Sub,
    /// `*`.
    Mul,
    /// `/`.
    Div,
    /// `%`.
    Rem,
    /// `<<`.
    Shl,
    /// `>>`.
    Shr,
    /// `<`.
    Lt,
    /// `<=`.
    Le,
    /// `>`.
    Gt,
    /// `>=`.
    Ge,
    /// `==`.
    Eq,
    /// `!=`.
    Ne,
    /// `&`.
    BitAnd,
    /// `^`.
    BitXor,
    /// `|`.
    BitOr,
}

impl BinOp {
    /// Whether the operator is a comparison producing a boolean-ish int.
    pub fn is_comparison(self) -> bool {
        matches!(self, BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge | BinOp::Eq | BinOp::Ne)
    }
}

/// An expression.
#[derive(Debug, Clone, PartialEq)]
pub struct Expr {
    /// Expression shape.
    pub kind: ExprKind,
    /// Source location.
    pub span: Span,
}

impl Expr {
    /// Pairs a kind with its span.
    pub fn new(kind: ExprKind, span: Span) -> Self {
        Expr { kind, span }
    }
}

/// Expression shapes.
#[derive(Debug, Clone, PartialEq)]
pub enum ExprKind {
    /// Integer constant.
    IntLit(i64),
    /// Floating constant.
    FloatLit(f64),
    /// Character constant.
    CharLit(i64),
    /// String literal.
    StrLit(Symbol),
    /// Variable / function reference.
    Ident(Symbol),
    /// Unary operation.
    Unary(UnOp, ExprId),
    /// Arithmetic/relational/bitwise binary operation.
    Binary(BinOp, ExprId, ExprId),
    /// Short-circuit `&&`.
    LogicalAnd(ExprId, ExprId),
    /// Short-circuit `||`.
    LogicalOr(ExprId, ExprId),
    /// Assignment; `op` is `Some` for compound forms like `+=`.
    Assign {
        /// Compound operator, if any.
        op: Option<BinOp>,
        /// Target lvalue.
        lhs: ExprId,
        /// Source value.
        rhs: ExprId,
    },
    /// Ternary conditional.
    Conditional {
        /// Condition.
        cond: ExprId,
        /// Value if nonzero.
        then: ExprId,
        /// Value if zero.
        els: ExprId,
    },
    /// Function call. The restricted subset only allows direct calls, so the
    /// callee is a name.
    Call {
        /// Called function name.
        callee: Symbol,
        /// Arguments in order.
        args: Vec<ExprId>,
    },
    /// Array indexing `base[index]`.
    Index(ExprId, ExprId),
    /// Member access; `arrow` distinguishes `->` from `.`.
    Member {
        /// Base expression.
        base: ExprId,
        /// Field name.
        field: Symbol,
        /// `true` for `->`.
        arrow: bool,
    },
    /// Type cast.
    Cast(TypeId, ExprId),
    /// `sizeof(type)`.
    SizeofType(TypeId),
    /// `sizeof expr`.
    SizeofExpr(ExprId),
    /// Pre-increment/decrement; `true` = increment.
    PreIncDec(ExprId, bool),
    /// Post-increment/decrement; `true` = increment.
    PostIncDec(ExprId, bool),
    /// Comma operator.
    Comma(ExprId, ExprId),
}

/// A top-level item.
#[derive(Debug, Clone, PartialEq)]
pub enum Item {
    /// `struct`/`union` definition.
    Struct(StructDef),
    /// `enum` definition.
    Enum(EnumDef),
    /// `typedef`.
    Typedef(Typedef),
    /// Global variable.
    Global(VarDecl),
    /// Function definition or prototype.
    Func(FuncDef),
}

impl Item {
    /// Source location of the item.
    pub fn span(&self) -> Span {
        match self {
            Item::Struct(s) => s.span,
            Item::Enum(e) => e.span,
            Item::Typedef(t) => t.span,
            Item::Global(g) => g.span,
            Item::Func(f) => f.span,
        }
    }

    /// Declared name of the item, if it has one.
    pub fn name(&self) -> Option<&str> {
        match self {
            Item::Struct(s) => Some(s.name.as_str()),
            Item::Enum(e) => e.name.map(|n| n.as_str()),
            Item::Typedef(t) => Some(t.name.as_str()),
            Item::Global(g) => Some(g.name.as_str()),
            Item::Func(f) => Some(f.name.as_str()),
        }
    }
}

/// A parsed translation unit (one preprocessed program) together with the
/// node arena its items index into.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TranslationUnit {
    /// Items in declaration order.
    pub items: Vec<Item>,
    /// The node arena all item subtrees live in.
    pub ast: Ast,
}

impl TranslationUnit {
    /// Iterates over all function definitions (those with bodies).
    pub fn functions(&self) -> impl Iterator<Item = &FuncDef> {
        self.items.iter().filter_map(|i| match i {
            Item::Func(f) if f.body.is_some() => Some(f),
            _ => None,
        })
    }

    /// Finds a function (definition or prototype) by name.
    pub fn function(&self, name: &str) -> Option<&FuncDef> {
        // Prefer a definition over a prototype.
        let mut proto = None;
        for item in &self.items {
            if let Item::Func(f) = item {
                if f.name == name {
                    if f.body.is_some() {
                        return Some(f);
                    }
                    proto = Some(f);
                }
            }
        }
        proto
    }

    /// Iterates over global variable declarations.
    pub fn globals(&self) -> impl Iterator<Item = &VarDecl> {
        self.items.iter().filter_map(|i| match i {
            Item::Global(g) => Some(g),
            _ => None,
        })
    }

    /// Finds a struct/union definition by tag name.
    pub fn struct_def(&self, name: &str) -> Option<&StructDef> {
        self.items.iter().find_map(|i| match i {
            Item::Struct(s) if s.name == name => Some(s),
            _ => None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_arena_helpers() {
        let mut ast = Ast::default();
        let t = ast.alloc_type(TypeExpr::new(TypeExprKind::Int(Signedness::Signed), Span::dummy()));
        assert!(!ast.is_void(t));
        let p = ast.ptr_to(t);
        assert_eq!(ast.type_expr(p).kind, TypeExprKind::Ptr(t));
        assert_eq!(ast.node_count(), 2);
    }

    #[test]
    fn translation_unit_lookup_prefers_definition() {
        let mut ast = Ast::default();
        let void = ast.alloc_type(TypeExpr::new(TypeExprKind::Void, Span::dummy()));
        let proto = FuncDef {
            name: Symbol::intern("f"),
            ret: void,
            params: vec![],
            varargs: false,
            body: None,
            annotations: vec![],
            storage: Storage::None,
            span: Span::dummy(),
        };
        let mut def = proto.clone();
        def.body = Some(Block { items: vec![], span: Span::dummy() });
        let tu = TranslationUnit { items: vec![Item::Func(proto), Item::Func(def)], ast };
        assert!(tu.function("f").unwrap().body.is_some());
        assert_eq!(tu.functions().count(), 1);
    }

    #[test]
    fn binop_comparison_classification() {
        assert!(BinOp::Lt.is_comparison());
        assert!(BinOp::Ne.is_comparison());
        assert!(!BinOp::Add.is_comparison());
        assert!(!BinOp::BitOr.is_comparison());
    }
}
