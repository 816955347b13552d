//! C pretty-printer for the AST.
//!
//! Used for golden tests and the parse → print → reparse round-trip
//! property: printing a parsed program and reparsing it must yield an
//! equivalent AST (modulo spans). Annotations are re-emitted as SafeFlow
//! comment blocks so the round trip preserves them.
//!
//! All node references are arena ids, so every printing function threads
//! the unit's [`Ast`]; interned names are resolved with [`Symbol::as_str`]
//! at the last moment, keeping output byte-identical to the pre-arena
//! printer.

use crate::annot::{AnnExpr, Annotation};
use crate::ast::*;
use std::fmt::Write as _;

/// Renders a translation unit as compilable C-subset source.
pub fn print_unit(unit: &TranslationUnit) -> String {
    let mut p = Printer { ast: &unit.ast, out: String::new(), indent: 0 };
    for item in &unit.items {
        p.item(item);
        p.out.push('\n');
    }
    p.out
}

struct Printer<'a> {
    ast: &'a Ast,
    out: String,
    indent: usize,
}

impl<'a> Printer<'a> {
    fn pad(&mut self) {
        for _ in 0..self.indent {
            self.out.push_str("    ");
        }
    }

    fn item(&mut self, item: &Item) {
        match item {
            Item::Struct(s) => {
                let kw = if s.is_union { "union" } else { "struct" };
                let _ = writeln!(self.out, "{kw} {} {{", s.name);
                for f in &s.fields {
                    self.pad();
                    let _ =
                        writeln!(self.out, "    {};", declarator(self.ast, f.ty, f.name.as_str()));
                }
                self.out.push_str("};\n");
            }
            Item::Enum(e) => {
                match &e.name {
                    Some(n) => {
                        let _ = writeln!(self.out, "enum {n} {{");
                    }
                    None => self.out.push_str("enum {\n"),
                }
                for (name, value, _) in &e.variants {
                    self.pad();
                    match value {
                        Some(v) => {
                            let _ = writeln!(self.out, "    {name} = {},", expr(self.ast, *v));
                        }
                        None => {
                            let _ = writeln!(self.out, "    {name},");
                        }
                    }
                }
                self.out.push_str("};\n");
            }
            Item::Typedef(t) => {
                let _ =
                    writeln!(self.out, "typedef {};", declarator(self.ast, t.ty, t.name.as_str()));
            }
            Item::Global(g) => {
                let storage = storage_prefix(g.storage);
                match g.init {
                    Some(init) => {
                        let _ = writeln!(
                            self.out,
                            "{storage}{} = {};",
                            declarator(self.ast, g.ty, g.name.as_str()),
                            initializer(self.ast, init)
                        );
                    }
                    None => {
                        let _ = writeln!(
                            self.out,
                            "{storage}{};",
                            declarator(self.ast, g.ty, g.name.as_str())
                        );
                    }
                }
            }
            Item::Func(f) => {
                let storage = storage_prefix(f.storage);
                let params = if f.params.is_empty() && !f.varargs {
                    "void".to_string()
                } else {
                    let mut ps: Vec<String> = f
                        .params
                        .iter()
                        .map(|p| declarator(self.ast, p.ty, p.name.as_str()))
                        .collect();
                    if f.varargs {
                        ps.push("...".to_string());
                    }
                    ps.join(", ")
                };
                let _ = write!(
                    self.out,
                    "{storage}{}({params})",
                    declarator(self.ast, f.ret, f.name.as_str())
                );
                if !f.annotations.is_empty() {
                    self.out.push('\n');
                    self.annotations(&f.annotations);
                }
                match &f.body {
                    Some(b) => {
                        self.out.push_str(" {\n");
                        self.indent += 1;
                        for s in &b.items {
                            self.stmt(*s);
                        }
                        self.indent -= 1;
                        self.out.push_str("}\n");
                    }
                    None => self.out.push_str(";\n"),
                }
            }
        }
    }

    fn annotations(&mut self, anns: &[Annotation]) {
        self.out.push_str("/** SafeFlow Annotation\n");
        for a in anns {
            self.pad();
            let _ = writeln!(self.out, "    {}", annotation(a));
        }
        self.out.push_str("*/");
    }

    /// Prints a statement used as a brace-wrapped body: blocks are
    /// flattened one level so round-tripping does not accumulate braces.
    fn body(&mut self, s: StmtId) {
        match &self.ast.stmt(s).kind {
            StmtKind::Block(b) => {
                for inner in b.items.clone() {
                    self.stmt(inner);
                }
            }
            _ => self.stmt(s),
        }
    }

    fn stmt(&mut self, s: StmtId) {
        match &self.ast.stmt(s).kind {
            StmtKind::Empty => {
                self.pad();
                self.out.push_str(";\n");
            }
            StmtKind::Expr(e) => {
                self.pad();
                let _ = writeln!(self.out, "{};", expr(self.ast, *e));
            }
            StmtKind::Decl(d) => {
                self.pad();
                match d.init {
                    Some(init) => {
                        let _ = writeln!(
                            self.out,
                            "{} = {};",
                            declarator(self.ast, d.ty, d.name.as_str()),
                            initializer(self.ast, init)
                        );
                    }
                    None => {
                        let _ =
                            writeln!(self.out, "{};", declarator(self.ast, d.ty, d.name.as_str()));
                    }
                }
            }
            StmtKind::Block(b) => {
                self.pad();
                self.out.push_str("{\n");
                self.indent += 1;
                for inner in b.items.clone() {
                    self.stmt(inner);
                }
                self.indent -= 1;
                self.pad();
                self.out.push_str("}\n");
            }
            StmtKind::If { cond, then, els } => {
                let (cond, then, els) = (*cond, *then, *els);
                self.pad();
                let _ = writeln!(self.out, "if ({}) {{", expr(self.ast, cond));
                self.indent += 1;
                self.body(then);
                self.indent -= 1;
                match els {
                    Some(e) => {
                        self.pad();
                        self.out.push_str("} else {\n");
                        self.indent += 1;
                        self.body(e);
                        self.indent -= 1;
                        self.pad();
                        self.out.push_str("}\n");
                    }
                    None => {
                        self.pad();
                        self.out.push_str("}\n");
                    }
                }
            }
            StmtKind::While { cond, body } => {
                let (cond, body) = (*cond, *body);
                self.pad();
                let _ = writeln!(self.out, "while ({}) {{", expr(self.ast, cond));
                self.indent += 1;
                self.body(body);
                self.indent -= 1;
                self.pad();
                self.out.push_str("}\n");
            }
            StmtKind::DoWhile { body, cond } => {
                let (body, cond) = (*body, *cond);
                self.pad();
                self.out.push_str("do {\n");
                self.indent += 1;
                self.body(body);
                self.indent -= 1;
                self.pad();
                let _ = writeln!(self.out, "}} while ({});", expr(self.ast, cond));
            }
            StmtKind::For { init, cond, step, body } => {
                let (init, cond, step, body) = (*init, *cond, *step, *body);
                self.pad();
                // The init clause is a statement; inline its text without
                // the newline/indentation.
                let init_text = match init {
                    Some(s) => {
                        let mut sub = Printer { ast: self.ast, out: String::new(), indent: 0 };
                        sub.stmt(s);
                        sub.out.trim().trim_end_matches(';').to_string()
                    }
                    None => String::new(),
                };
                let cond_text = cond.map(|e| expr(self.ast, e)).unwrap_or_default();
                let step_text = step.map(|e| expr(self.ast, e)).unwrap_or_default();
                let _ = writeln!(self.out, "for ({init_text}; {cond_text}; {step_text}) {{");
                self.indent += 1;
                self.body(body);
                self.indent -= 1;
                self.pad();
                self.out.push_str("}\n");
            }
            StmtKind::Switch { scrutinee, cases } => {
                let scrutinee = *scrutinee;
                let cases = cases.clone();
                self.pad();
                let _ = writeln!(self.out, "switch ({}) {{", expr(self.ast, scrutinee));
                for case in &cases {
                    self.pad();
                    match case.label {
                        Some(l) => {
                            let _ = writeln!(self.out, "case {}:", expr(self.ast, l));
                        }
                        None => self.out.push_str("default:\n"),
                    }
                    self.indent += 1;
                    for s in &case.stmts {
                        self.stmt(*s);
                    }
                    self.indent -= 1;
                }
                self.pad();
                self.out.push_str("}\n");
            }
            StmtKind::Return(v) => {
                let v = *v;
                self.pad();
                match v {
                    Some(e) => {
                        let _ = writeln!(self.out, "return {};", expr(self.ast, e));
                    }
                    None => self.out.push_str("return;\n"),
                }
            }
            StmtKind::Break => {
                self.pad();
                self.out.push_str("break;\n");
            }
            StmtKind::Continue => {
                self.pad();
                self.out.push_str("continue;\n");
            }
            StmtKind::Annotation(a) => {
                let text = annotation(a);
                self.pad();
                let _ = writeln!(self.out, "/** SafeFlow Annotation {text} */");
            }
        }
    }
}

fn storage_prefix(s: Storage) -> &'static str {
    match s {
        Storage::None => "",
        Storage::Static => "static ",
        Storage::Extern => "extern ",
        Storage::Typedef => "typedef ",
    }
}

/// Renders a type applied to a declarator name (`int *x`, `float v[8]`).
fn declarator(ast: &Ast, ty: TypeId, name: &str) -> String {
    match ast.type_expr(ty).kind {
        TypeExprKind::Ptr(inner) => declarator(ast, inner, &format!("*{name}")),
        TypeExprKind::Array(inner, size) => {
            let dim = size.map(|e| expr(ast, e)).unwrap_or_default();
            declarator(ast, inner, &format!("{name}[{dim}]"))
        }
        base => format!("{} {name}", base_type(&base)),
    }
}

fn base_type(k: &TypeExprKind) -> String {
    match k {
        TypeExprKind::Void => "void".into(),
        TypeExprKind::Char(Signedness::Signed) => "char".into(),
        TypeExprKind::Char(Signedness::Unsigned) => "unsigned char".into(),
        TypeExprKind::Short(Signedness::Signed) => "short".into(),
        TypeExprKind::Short(Signedness::Unsigned) => "unsigned short".into(),
        TypeExprKind::Int(Signedness::Signed) => "int".into(),
        TypeExprKind::Int(Signedness::Unsigned) => "unsigned int".into(),
        TypeExprKind::Long(Signedness::Signed) => "long".into(),
        TypeExprKind::Long(Signedness::Unsigned) => "unsigned long".into(),
        TypeExprKind::Float => "float".into(),
        TypeExprKind::Double => "double".into(),
        TypeExprKind::Named(n) => n.as_str().into(),
        TypeExprKind::Struct(n) => format!("struct {n}"),
        TypeExprKind::Union(n) => format!("union {n}"),
        TypeExprKind::Enum(n) => format!("enum {n}"),
        TypeExprKind::Ptr(_) | TypeExprKind::Array(..) => unreachable!("handled by declarator"),
    }
}

fn initializer(ast: &Ast, init: InitId) -> String {
    match ast.init(init) {
        Initializer::Expr(e) => expr(ast, *e),
        Initializer::List(items, _) => {
            let inner: Vec<String> = items.iter().map(|i| initializer(ast, *i)).collect();
            format!("{{ {} }}", inner.join(", "))
        }
    }
}

/// Renders an expression, fully parenthesized (correct by construction;
/// precedence-minimal output is not a goal).
pub fn expr(ast: &Ast, e: ExprId) -> String {
    match &ast.expr(e).kind {
        ExprKind::IntLit(v) => {
            if *v < 0 {
                format!("({v})")
            } else {
                v.to_string()
            }
        }
        ExprKind::FloatLit(v) => {
            if v.fract() == 0.0 && v.is_finite() {
                format!("{v:.1}")
            } else {
                format!("{v}")
            }
        }
        ExprKind::CharLit(v) => v.to_string(),
        ExprKind::StrLit(s) => format!("{:?}", s.as_str()),
        ExprKind::Ident(n) => n.as_str().into(),
        ExprKind::Unary(op, inner) => {
            let o = match op {
                UnOp::Neg => "-",
                UnOp::Plus => "+",
                UnOp::Not => "!",
                UnOp::BitNot => "~",
                UnOp::Deref => "*",
                UnOp::AddrOf => "&",
            };
            format!("({o}{})", expr(ast, *inner))
        }
        ExprKind::Binary(op, l, r) => {
            let o = match op {
                BinOp::Add => "+",
                BinOp::Sub => "-",
                BinOp::Mul => "*",
                BinOp::Div => "/",
                BinOp::Rem => "%",
                BinOp::Shl => "<<",
                BinOp::Shr => ">>",
                BinOp::Lt => "<",
                BinOp::Le => "<=",
                BinOp::Gt => ">",
                BinOp::Ge => ">=",
                BinOp::Eq => "==",
                BinOp::Ne => "!=",
                BinOp::BitAnd => "&",
                BinOp::BitXor => "^",
                BinOp::BitOr => "|",
            };
            format!("({} {o} {})", expr(ast, *l), expr(ast, *r))
        }
        ExprKind::LogicalAnd(l, r) => format!("({} && {})", expr(ast, *l), expr(ast, *r)),
        ExprKind::LogicalOr(l, r) => format!("({} || {})", expr(ast, *l), expr(ast, *r)),
        ExprKind::Assign { op, lhs, rhs } => {
            let o = match op {
                None => "=".to_string(),
                Some(b) => format!(
                    "{}=",
                    match b {
                        BinOp::Add => "+",
                        BinOp::Sub => "-",
                        BinOp::Mul => "*",
                        BinOp::Div => "/",
                        BinOp::Rem => "%",
                        BinOp::Shl => "<<",
                        BinOp::Shr => ">>",
                        BinOp::BitAnd => "&",
                        BinOp::BitXor => "^",
                        BinOp::BitOr => "|",
                        _ => "?",
                    }
                ),
            };
            format!("{} {o} {}", expr(ast, *lhs), expr(ast, *rhs))
        }
        ExprKind::Conditional { cond, then, els } => {
            format!("({} ? {} : {})", expr(ast, *cond), expr(ast, *then), expr(ast, *els))
        }
        ExprKind::Call { callee, args } => {
            let a: Vec<String> = args.iter().map(|x| expr(ast, *x)).collect();
            format!("{callee}({})", a.join(", "))
        }
        ExprKind::Index(base, idx) => format!("{}[{}]", expr(ast, *base), expr(ast, *idx)),
        ExprKind::Member { base, field, arrow } => {
            format!("{}{}{field}", expr(ast, *base), if *arrow { "->" } else { "." })
        }
        ExprKind::Cast(ty, inner) => {
            format!("(({}) {})", cast_type(ast, *ty), expr(ast, *inner))
        }
        ExprKind::SizeofType(ty) => format!("sizeof({})", cast_type(ast, *ty)),
        ExprKind::SizeofExpr(inner) => format!("sizeof({})", expr(ast, *inner)),
        ExprKind::PreIncDec(inner, true) => format!("(++{})", expr(ast, *inner)),
        ExprKind::PreIncDec(inner, false) => format!("(--{})", expr(ast, *inner)),
        ExprKind::PostIncDec(inner, true) => format!("({}++)", expr(ast, *inner)),
        ExprKind::PostIncDec(inner, false) => format!("({}--)", expr(ast, *inner)),
        ExprKind::Comma(l, r) => format!("({}, {})", expr(ast, *l), expr(ast, *r)),
    }
}

/// Abstract-declarator form of a type (for casts/sizeof).
fn cast_type(ast: &Ast, ty: TypeId) -> String {
    match ast.type_expr(ty).kind {
        TypeExprKind::Ptr(inner) => format!("{} *", cast_type(ast, inner)),
        TypeExprKind::Array(inner, _) => format!("{} *", cast_type(ast, inner)),
        base => base_type(&base),
    }
}

fn annotation(a: &Annotation) -> String {
    match a {
        Annotation::AssumeCore { ptr, offset, size, .. } => {
            format!("assume(core({ptr}, {}, {}))", ann_expr(offset), ann_expr(size))
        }
        Annotation::AssertSafe { var, .. } => format!("assert(safe({var}))"),
        Annotation::ShmInit { .. } => "shminit".to_string(),
        Annotation::ShmVar { ptr, size, .. } => {
            format!("assume(shmvar({ptr}, {}))", ann_expr(size))
        }
        Annotation::Noncore { target, .. } => format!("assume(noncore({target}))"),
        Annotation::Label { name, below: Some(b), .. } => {
            format!("assume(label({name}, {b}))")
        }
        Annotation::Label { name, below: None, .. } => format!("assume(label({name}))"),
        Annotation::Declassifier { from, to, .. } => {
            format!("assume(declassifier({from}, {to}))")
        }
        Annotation::Channel { ptr, size, label, .. } => {
            format!("assume(channel({ptr}, {}, {label}))", ann_expr(size))
        }
        Annotation::AssumeDeclassify { ptr, offset, size, to, .. } => {
            format!("assume(declassify({ptr}, {}, {}, {to}))", ann_expr(offset), ann_expr(size))
        }
    }
}

fn ann_expr(e: &AnnExpr) -> String {
    match e {
        AnnExpr::Int(v) => v.to_string(),
        AnnExpr::Sizeof(n) => format!("sizeof({n})"),
        AnnExpr::Ident(n) => n.to_string(),
        AnnExpr::Add(a, b) => format!("({} + {})", ann_expr(a), ann_expr(b)),
        AnnExpr::Sub(a, b) => format!("({} - {})", ann_expr(a), ann_expr(b)),
        AnnExpr::Mul(a, b) => format!("({} * {})", ann_expr(a), ann_expr(b)),
        AnnExpr::Div(a, b) => format!("({} / {})", ann_expr(a), ann_expr(b)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_source;

    fn round_trip(src: &str) {
        let first = parse_source("a.c", src);
        assert!(
            !first.diags.has_errors(),
            "first parse:\n{}",
            first.diags.render_all(&first.sources)
        );
        let printed = print_unit(&first.unit);
        let second = parse_source("b.c", &printed);
        assert!(
            !second.diags.has_errors(),
            "reparse failed on:\n{printed}\n{}",
            second.diags.render_all(&second.sources)
        );
        // Structural comparison: item count and names survive; full AST
        // equality is checked modulo spans via the printed forms.
        let reprinted = print_unit(&second.unit);
        assert_eq!(printed, reprinted, "printing must be a fixpoint");
    }

    #[test]
    fn round_trip_declarations() {
        round_trip("int a; float b = 1.5; int c[4]; int *d;");
    }

    #[test]
    fn round_trip_structs_and_typedefs() {
        round_trip(
            "typedef struct Pt { float x; float y; } Pt;\nstruct Pt origin;\nenum M { A, B = 3 };",
        );
    }

    #[test]
    fn round_trip_control_flow() {
        round_trip(
            r#"
            int f(int n) {
                int s = 0;
                int i;
                for (i = 0; i < n; i++) {
                    if (i % 2 == 0) s += i; else s -= 1;
                }
                while (s > 10) { s /= 2; }
                do { s++; } while (s < 0);
                switch (s) { case 1: return 1; default: break; }
                return s;
            }
            "#,
        );
    }

    #[test]
    fn round_trip_expressions() {
        round_trip(
            r#"
            typedef struct { float v[4]; } D;
            float g(D *d, int i) {
                float x = d->v[i] * 2.0 + (i > 0 ? 1.0 : 0.0);
                x = -x;
                return x;
            }
            "#,
        );
    }

    #[test]
    fn round_trip_annotations() {
        round_trip(
            r#"
            typedef struct { float c; } S;
            S *p;
            void *shmat(int a, void *b, int c);
            void init(void)
            /** SafeFlow Annotation shminit */
            {
                p = (S *) shmat(0, 0, 0);
                /** SafeFlow Annotation
                    assume(shmvar(p, sizeof(S)))
                    assume(noncore(p))
                */
            }
            float mon(float f)
            /** SafeFlow Annotation assume(core(p, 0, sizeof(S))) */
            {
                float v = p->c;
                /** SafeFlow Annotation assert(safe(v)) */
                return v;
            }
            "#,
        );
    }

    #[test]
    fn round_trip_figure2() {
        // The full running example survives a round trip.
        let fig2 = r#"
            typedef struct { float control; float track; float angle; } SHMData;
            SHMData *noncoreCtrl;
            SHMData *feedback;
            void *shmat(int shmid, void *addr, int flags);
            int checkSafety(SHMData *fb, SHMData *ctrl);
            float decision(SHMData *f, float safeControl, SHMData *ctrl)
            /** SafeFlow Annotation assume(core(noncoreCtrl, 0, sizeof(SHMData))) */
            {
                if (checkSafety(feedback, noncoreCtrl))
                    return noncoreCtrl->control;
                else
                    return safeControl;
            }
        "#;
        round_trip(fig2);
    }

    #[test]
    fn printed_annotations_rebind_identically() {
        // The annotation facts must survive printing (not just parse).
        let src = r#"
            typedef struct { float c; } S;
            S *p;
            void *shmat(int a, void *b, int c);
            void init(void)
            /** SafeFlow Annotation shminit */
            {
                p = (S *) shmat(0, 0, 0);
                /** SafeFlow Annotation
                    assume(shmvar(p, sizeof(S)))
                    assume(noncore(p))
                */
            }
        "#;
        let first = parse_source("a.c", src);
        let printed = print_unit(&first.unit);
        let second = parse_source("b.c", &printed);
        let f1 = first.unit.function("init").unwrap();
        let f2 = second.unit.function("init").unwrap();
        assert_eq!(f1.annotations.len(), f2.annotations.len());
    }
}
