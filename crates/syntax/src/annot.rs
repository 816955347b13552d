//! The SafeFlow annotation language (paper §3.1, §3.2.1, §3.4.3).
//!
//! Annotations are embedded in C comments that begin with the marker string
//! `SafeFlow Annotation`. The grammar is deliberately tiny:
//!
//! ```text
//! annotation := 'assume' '(' fact ')'
//!             | 'assert' '(' 'safe' '(' ident ')' ')'
//!             | 'shminit'
//! fact       := 'core'    '(' ident ',' aexpr ',' aexpr ')'
//!             | 'shmvar'  '(' ident ',' aexpr ')'
//!             | 'noncore' '(' ident ')'
//!             | 'label'   '(' ident [',' ident] ')'
//!             | 'declassifier' '(' ident ',' ident ')'
//!             | 'channel' '(' ident ',' aexpr ',' ident ')'
//!             | 'declassify' '(' ident ',' aexpr ',' aexpr ',' ident ')'
//! aexpr      := integer | 'sizeof' '(' type-name ')' | ident
//!             | aexpr ('+'|'-'|'*'|'/') aexpr | '(' aexpr ')'
//! ```
//!
//! The `label`/`declassifier`/`channel`/`declassify` facts belong to the
//! label-lattice policy extension: `label` declares a policy label
//! (optionally above another), `declassifier` allows monitors to relabel
//! between a declared pair, `channel` declares a non-core shared-memory
//! channel endpoint carrying a declared label, and `assume(declassify(...))`
//! is the labeled generalization of `assume(core(...))`. Label names stay
//! strings, as the configuration supplies labels too; other names are
//! [`Symbol`]s.
//!
//! Multiple annotations may share a comment block. Size expressions are kept
//! symbolic ([`AnnExpr`]) and evaluated later against the program's type
//! layouts.

use crate::diag::Diagnostics;
use crate::lexer::lex;
use crate::source::SourceMap;
use crate::span::Span;
use crate::token::{Keyword, Punct, Token, TokenKind};
use safeflow_util::Symbol;

/// A symbolic constant expression inside an annotation.
#[derive(Debug, Clone, PartialEq)]
pub enum AnnExpr {
    /// Integer literal.
    Int(i64),
    /// `sizeof(TypeName)` / `sizeof(struct Tag)` — resolved during binding.
    Sizeof(Symbol),
    /// A named compile-time constant (e.g. an enum constant).
    Ident(Symbol),
    /// Sum.
    Add(Box<AnnExpr>, Box<AnnExpr>),
    /// Difference.
    Sub(Box<AnnExpr>, Box<AnnExpr>),
    /// Product.
    Mul(Box<AnnExpr>, Box<AnnExpr>),
    /// Quotient (checked nonzero at evaluation).
    Div(Box<AnnExpr>, Box<AnnExpr>),
}

impl AnnExpr {
    /// Evaluates with `resolve` supplying values for `sizeof` and named
    /// constants. Returns `None` on unresolved names or division by zero.
    pub fn eval(&self, resolve: &dyn Fn(&AnnExpr) -> Option<i64>) -> Option<i64> {
        match self {
            AnnExpr::Int(v) => Some(*v),
            AnnExpr::Sizeof(_) | AnnExpr::Ident(_) => resolve(self),
            AnnExpr::Add(a, b) => Some(a.eval(resolve)? + b.eval(resolve)?),
            AnnExpr::Sub(a, b) => Some(a.eval(resolve)? - b.eval(resolve)?),
            AnnExpr::Mul(a, b) => Some(a.eval(resolve)? * b.eval(resolve)?),
            AnnExpr::Div(a, b) => {
                let d = b.eval(resolve)?;
                if d == 0 {
                    None
                } else {
                    Some(a.eval(resolve)? / d)
                }
            }
        }
    }
}

/// A parsed SafeFlow annotation.
#[derive(Debug, Clone, PartialEq)]
pub enum Annotation {
    /// `assume(core(ptr, offset, size))` — within the annotated (monitoring)
    /// function and its callees, the shared-memory locations reachable from
    /// `ptr` in `[offset, offset+size)` may be treated as core (paper §3.1).
    AssumeCore {
        /// Shared-memory pointer name (local or global).
        ptr: Symbol,
        /// Byte offset of the assumed-core extent.
        offset: AnnExpr,
        /// Byte length of the assumed-core extent.
        size: AnnExpr,
        /// Source location of the annotation comment.
        span: Span,
    },
    /// `assert(safe(x))` — the local value `x` must not depend on any
    /// unmonitored non-core value (paper §3.1: critical data).
    AssertSafe {
        /// Asserted variable name.
        var: Symbol,
        /// Source location.
        span: Span,
    },
    /// `shminit` — marks a shared-memory initializing function, exempting it
    /// (and its callees) from restriction P3 (paper §3.2.1).
    ShmInit {
        /// Source location.
        span: Span,
    },
    /// `assume(shmvar(ptr, size))` — post-condition of an initializing
    /// function: `ptr` addresses `size` bytes of shared memory
    /// (paper §3.2.1).
    ShmVar {
        /// Shared-memory pointer name.
        ptr: Symbol,
        /// Total byte size addressed through the pointer.
        size: AnnExpr,
        /// Source location.
        span: Span,
    },
    /// `assume(noncore(x))` — the shared region named by pointer `x` (or the
    /// socket descriptor `x`, §3.4.3) may be written by non-core components.
    Noncore {
        /// Pointer or descriptor name.
        target: Symbol,
        /// Source location.
        span: Span,
    },
    /// `label(name)` / `label(name, below)` — declares a policy label,
    /// optionally directly above `below` in the lattice order (the
    /// label-lattice policy extension).
    Label {
        /// Declared label name.
        name: String,
        /// Label this one sits directly above, if any.
        below: Option<String>,
        /// Source location.
        span: Span,
    },
    /// `declassifier(from, to)` — monitors may relabel `from`-labeled
    /// data to `to`.
    Declassifier {
        /// Source label name.
        from: String,
        /// Target label name.
        to: String,
        /// Source location.
        span: Span,
    },
    /// `channel(ptr, size, label)` — post-condition of an initializing
    /// function: `ptr` addresses `size` bytes of non-core shared memory
    /// carrying the declared `label` (a labeled channel endpoint; the
    /// labeled generalization of `shmvar` + `noncore`).
    Channel {
        /// Shared-memory pointer name.
        ptr: Symbol,
        /// Total byte size addressed through the pointer.
        size: AnnExpr,
        /// Declared channel label.
        label: String,
        /// Source location.
        span: Span,
    },
    /// `assume(declassify(ptr, offset, size, to))` — within the annotated
    /// function and its callees, reads of the region extent are relabeled
    /// to `to` (the labeled generalization of `assume(core(...))`; needs a
    /// matching `declassifier` in the policy).
    AssumeDeclassify {
        /// Shared-memory pointer name (local or global).
        ptr: Symbol,
        /// Byte offset of the declassified extent.
        offset: AnnExpr,
        /// Byte length of the declassified extent.
        size: AnnExpr,
        /// Target label.
        to: String,
        /// Source location.
        span: Span,
    },
}

impl Annotation {
    /// Source location of the annotation.
    pub fn span(&self) -> Span {
        match self {
            Annotation::AssumeCore { span, .. }
            | Annotation::AssertSafe { span, .. }
            | Annotation::ShmInit { span }
            | Annotation::ShmVar { span, .. }
            | Annotation::Noncore { span, .. }
            | Annotation::Label { span, .. }
            | Annotation::Declassifier { span, .. }
            | Annotation::Channel { span, .. }
            | Annotation::AssumeDeclassify { span, .. } => *span,
        }
    }

    /// Whether this annotation is function-level (applies to the whole
    /// function) rather than attached to a program point.
    pub fn is_function_level(&self) -> bool {
        !matches!(self, Annotation::AssertSafe { .. })
    }

    fn set_span(&mut self, new: Span) {
        match self {
            Annotation::AssumeCore { span, .. }
            | Annotation::AssertSafe { span, .. }
            | Annotation::ShmInit { span }
            | Annotation::ShmVar { span, .. }
            | Annotation::Noncore { span, .. }
            | Annotation::Label { span, .. }
            | Annotation::Declassifier { span, .. }
            | Annotation::Channel { span, .. }
            | Annotation::AssumeDeclassify { span, .. } => *span = new,
        }
    }
}

/// Parses the body of one annotation comment into its annotations.
///
/// `span` is the comment's location and `sources`/`diags` receive a synthetic
/// file for sub-lexing plus any syntax errors.
pub fn parse_annotation_body(
    body: &str,
    span: Span,
    sources: &mut SourceMap,
    diags: &mut Diagnostics,
) -> Vec<Annotation> {
    let file = sources.add_synthetic("<annotation>", body);
    let mut local = Diagnostics::new();
    let tokens = lex(file, body, &mut local);
    if local.has_errors() {
        diags.error(span, "malformed SafeFlow annotation (lexical error in body)");
        return Vec::new();
    }
    let mut parser = AnnParser { tokens, pos: 0, span, diags };
    let mut out = Vec::new();
    while !parser.at_eof() {
        // Annotations may be separated by semicolons/commas or just laid out
        // on separate lines.
        if parser.eat_punct(Punct::Semi) || parser.eat_punct(Punct::Comma) {
            continue;
        }
        let start = parser.pos;
        match parser.parse_one() {
            Some(mut a) => {
                a.set_span(parser.real_span(start));
                out.push(a);
            }
            None => break,
        }
    }
    out
}

struct AnnParser<'d> {
    tokens: Vec<Token>,
    pos: usize,
    span: Span,
    diags: &'d mut Diagnostics,
}

impl<'d> AnnParser<'d> {
    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos.min(self.tokens.len() - 1)].kind
    }

    fn bump(&mut self) -> TokenKind {
        let k = self.tokens[self.pos.min(self.tokens.len() - 1)].kind;
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        k
    }

    fn at_eof(&self) -> bool {
        matches!(self.peek(), TokenKind::Eof)
    }

    /// Maps a synthetic-file offset range back into the real source file.
    ///
    /// The sub-lexed body is a verbatim substring of the real file whose
    /// first byte sits at `self.span.lo` (the lexer's annotation-token span
    /// covers exactly the payload text), so the mapping is a plain offset
    /// shift. Dummy base spans (unit tests parse bodies with no backing
    /// file) stay dummy.
    fn map_to_real(&self, lo: u32, hi: u32) -> Span {
        if self.span.is_dummy() {
            return self.span;
        }
        Span::new(self.span.file, self.span.lo + lo, (self.span.lo + hi).min(self.span.hi))
    }

    /// The real-file span of the annotation that started at token index
    /// `start` and ran through the last consumed token.
    fn real_span(&self, start: usize) -> Span {
        let lo = self.tokens[start.min(self.tokens.len() - 1)].span.lo;
        let last = self.pos.saturating_sub(1).max(start).min(self.tokens.len() - 1);
        let hi = self.tokens[last].span.hi.max(lo);
        self.map_to_real(lo, hi)
    }

    /// The real-file span of the current token — the anchor for syntax
    /// errors inside the annotation body.
    fn here(&self) -> Span {
        let t = &self.tokens[self.pos.min(self.tokens.len() - 1)];
        self.map_to_real(t.span.lo, t.span.hi)
    }

    fn eat_punct(&mut self, p: Punct) -> bool {
        if matches!(self.peek(), TokenKind::Punct(q) if *q == p) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, p: Punct) -> bool {
        if self.eat_punct(p) {
            true
        } else {
            self.diags.error(
                self.here(),
                format!(
                    "malformed SafeFlow annotation: expected `{}`, found {}",
                    p.as_str(),
                    self.peek().describe()
                ),
            );
            false
        }
    }

    fn expect_ident(&mut self) -> Option<Symbol> {
        let at = self.here();
        match self.bump() {
            TokenKind::Ident(s) => Some(s),
            other => {
                self.diags.error(
                    at,
                    format!(
                        "malformed SafeFlow annotation: expected identifier, found {}",
                        other.describe()
                    ),
                );
                None
            }
        }
    }

    fn parse_one(&mut self) -> Option<Annotation> {
        let head = self.expect_ident()?;
        match head.as_str() {
            "assume" => {
                self.expect_punct(Punct::LParen).then_some(())?;
                let fact = self.parse_fact()?;
                self.expect_punct(Punct::RParen).then_some(())?;
                Some(fact)
            }
            "assert" => {
                self.expect_punct(Punct::LParen).then_some(())?;
                let inner = self.expect_ident()?;
                if inner != "safe" {
                    self.diags.error(
                        self.here(),
                        format!("assert annotations only support `safe(x)`, found `{inner}`"),
                    );
                    return None;
                }
                self.expect_punct(Punct::LParen).then_some(())?;
                let var = self.expect_ident()?;
                self.expect_punct(Punct::RParen).then_some(())?;
                self.expect_punct(Punct::RParen).then_some(())?;
                Some(Annotation::AssertSafe { var, span: self.span })
            }
            "shminit" => Some(Annotation::ShmInit { span: self.span }),
            // Tolerate writing the facts without the assume() wrapper, which
            // the paper's Figure 3 uses for post-conditions.
            "core" | "shmvar" | "noncore" | "label" | "declassifier" | "channel" | "declassify" => {
                self.pos -= 1;
                self.parse_fact()
            }
            other => {
                self.diags.error(
                    self.here(),
                    format!(
                        "unknown SafeFlow annotation `{other}` (expected assume/assert/shminit)"
                    ),
                );
                None
            }
        }
    }

    fn parse_fact(&mut self) -> Option<Annotation> {
        let head = self.expect_ident()?;
        match head.as_str() {
            "core" => {
                self.expect_punct(Punct::LParen).then_some(())?;
                let ptr = self.expect_ident()?;
                self.expect_punct(Punct::Comma).then_some(())?;
                let offset = self.parse_expr()?;
                self.expect_punct(Punct::Comma).then_some(())?;
                let size = self.parse_expr()?;
                self.expect_punct(Punct::RParen).then_some(())?;
                Some(Annotation::AssumeCore { ptr, offset, size, span: self.span })
            }
            "shmvar" => {
                self.expect_punct(Punct::LParen).then_some(())?;
                let ptr = self.expect_ident()?;
                self.expect_punct(Punct::Comma).then_some(())?;
                let size = self.parse_expr()?;
                self.expect_punct(Punct::RParen).then_some(())?;
                Some(Annotation::ShmVar { ptr, size, span: self.span })
            }
            "noncore" => {
                self.expect_punct(Punct::LParen).then_some(())?;
                let target = self.expect_ident()?;
                self.expect_punct(Punct::RParen).then_some(())?;
                Some(Annotation::Noncore { target, span: self.span })
            }
            "label" => {
                self.expect_punct(Punct::LParen).then_some(())?;
                let name = self.expect_ident()?.to_string();
                let below =
                    if self.eat_punct(Punct::Comma) { Some(self.expect_ident()?) } else { None };
                self.expect_punct(Punct::RParen).then_some(())?;
                let below = below.map(|b| b.to_string());
                Some(Annotation::Label { name, below, span: self.span })
            }
            "declassifier" => {
                self.expect_punct(Punct::LParen).then_some(())?;
                let from = self.expect_ident()?.to_string();
                self.expect_punct(Punct::Comma).then_some(())?;
                let to = self.expect_ident()?.to_string();
                self.expect_punct(Punct::RParen).then_some(())?;
                Some(Annotation::Declassifier { from, to, span: self.span })
            }
            "channel" => {
                self.expect_punct(Punct::LParen).then_some(())?;
                let ptr = self.expect_ident()?;
                self.expect_punct(Punct::Comma).then_some(())?;
                let size = self.parse_expr()?;
                self.expect_punct(Punct::Comma).then_some(())?;
                let label = self.expect_ident()?.to_string();
                self.expect_punct(Punct::RParen).then_some(())?;
                Some(Annotation::Channel { ptr, size, label, span: self.span })
            }
            "declassify" => {
                self.expect_punct(Punct::LParen).then_some(())?;
                let ptr = self.expect_ident()?;
                self.expect_punct(Punct::Comma).then_some(())?;
                let offset = self.parse_expr()?;
                self.expect_punct(Punct::Comma).then_some(())?;
                let size = self.parse_expr()?;
                self.expect_punct(Punct::Comma).then_some(())?;
                let to = self.expect_ident()?.to_string();
                self.expect_punct(Punct::RParen).then_some(())?;
                Some(Annotation::AssumeDeclassify { ptr, offset, size, to, span: self.span })
            }
            other => {
                self.diags.error(
                    self.here(),
                    format!(
                        "unknown assumption `{other}` (expected core/shmvar/noncore/label/\
                         declassifier/channel/declassify)"
                    ),
                );
                None
            }
        }
    }

    /// Precedence-climbing over `+ - * /`.
    fn parse_expr(&mut self) -> Option<AnnExpr> {
        self.parse_additive()
    }

    fn parse_additive(&mut self) -> Option<AnnExpr> {
        let mut lhs = self.parse_multiplicative()?;
        loop {
            if self.eat_punct(Punct::Plus) {
                let rhs = self.parse_multiplicative()?;
                lhs = AnnExpr::Add(Box::new(lhs), Box::new(rhs));
            } else if self.eat_punct(Punct::Minus) {
                let rhs = self.parse_multiplicative()?;
                lhs = AnnExpr::Sub(Box::new(lhs), Box::new(rhs));
            } else {
                return Some(lhs);
            }
        }
    }

    fn parse_multiplicative(&mut self) -> Option<AnnExpr> {
        let mut lhs = self.parse_atom()?;
        loop {
            if self.eat_punct(Punct::Star) {
                let rhs = self.parse_atom()?;
                lhs = AnnExpr::Mul(Box::new(lhs), Box::new(rhs));
            } else if self.eat_punct(Punct::Slash) {
                let rhs = self.parse_atom()?;
                lhs = AnnExpr::Div(Box::new(lhs), Box::new(rhs));
            } else {
                return Some(lhs);
            }
        }
    }

    fn parse_atom(&mut self) -> Option<AnnExpr> {
        match self.bump() {
            TokenKind::IntLit(v) => Some(AnnExpr::Int(v)),
            TokenKind::Punct(Punct::LParen) => {
                let e = self.parse_expr()?;
                self.expect_punct(Punct::RParen).then_some(())?;
                Some(e)
            }
            TokenKind::Keyword(Keyword::Sizeof) => {
                self.expect_punct(Punct::LParen).then_some(())?;
                // Accept `sizeof(Name)`, `sizeof(struct Tag)`, and primitive
                // type names.
                let name = match self.bump() {
                    TokenKind::Ident(s) => s,
                    TokenKind::Keyword(Keyword::Struct) | TokenKind::Keyword(Keyword::Union) => {
                        self.expect_ident()?
                    }
                    TokenKind::Keyword(k) => Symbol::intern(k.as_str()),
                    other => {
                        self.diags.error(
                            self.here(),
                            format!("malformed sizeof in annotation: found {}", other.describe()),
                        );
                        return None;
                    }
                };
                self.expect_punct(Punct::RParen).then_some(())?;
                Some(AnnExpr::Sizeof(name))
            }
            TokenKind::Ident(s) => Some(AnnExpr::Ident(s)),
            other => {
                self.diags.error(
                    self.here(),
                    format!("malformed annotation expression: found {}", other.describe()),
                );
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_ok(body: &str) -> Vec<Annotation> {
        let mut sources = SourceMap::new();
        let mut diags = Diagnostics::new();
        let anns = parse_annotation_body(body, Span::dummy(), &mut sources, &mut diags);
        assert!(!diags.has_errors(), "{diags:?}");
        anns
    }

    #[test]
    fn parse_assume_core_figure2() {
        let anns = parse_ok("assume(core(noncoreCtrl, 0, sizeof(SHMData)))");
        assert_eq!(anns.len(), 1);
        match &anns[0] {
            Annotation::AssumeCore { ptr, offset, size, .. } => {
                assert_eq!(ptr, "noncoreCtrl");
                assert_eq!(*offset, AnnExpr::Int(0));
                assert_eq!(*size, AnnExpr::Sizeof("SHMData".into()));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parse_assert_safe() {
        let anns = parse_ok("assert(safe(output))");
        assert_eq!(
            anns,
            vec![Annotation::AssertSafe { var: "output".into(), span: Span::dummy() }]
        );
        assert!(!anns[0].is_function_level());
    }

    #[test]
    fn parse_shminit_and_postconditions_figure3() {
        let anns = parse_ok(
            "shminit\nassume(shmvar(feedback, sizeof(SHMData)))\nassume(shmvar(noncoreCtrl, sizeof(SHMData)))\nassume(noncore(noncoreCtrl))",
        );
        assert_eq!(anns.len(), 4);
        assert!(matches!(anns[0], Annotation::ShmInit { .. }));
        assert!(matches!(&anns[1], Annotation::ShmVar { ptr, .. } if ptr == "feedback"));
        assert!(matches!(&anns[3], Annotation::Noncore { target, .. } if target == "noncoreCtrl"));
        assert!(anns.iter().all(|a| a.is_function_level()));
    }

    #[test]
    fn parse_bare_fact_without_assume() {
        let anns = parse_ok("noncore(sock)");
        assert!(matches!(&anns[0], Annotation::Noncore { target, .. } if target == "sock"));
    }

    #[test]
    fn parse_arithmetic_size() {
        let anns = parse_ok("assume(shmvar(buf, 4 * sizeof(int) + 8))");
        match &anns[0] {
            Annotation::ShmVar { size, .. } => {
                let v = size
                    .eval(&|e| match e {
                        AnnExpr::Sizeof(n) if n == "int" => Some(4),
                        _ => None,
                    })
                    .unwrap();
                assert_eq!(v, 24);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parse_sizeof_struct_tag() {
        let anns = parse_ok("assume(core(p, 0, sizeof(struct Data)))");
        match &anns[0] {
            Annotation::AssumeCore { size, .. } => {
                assert_eq!(*size, AnnExpr::Sizeof("Data".into()));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parse_policy_label_declarations() {
        let anns =
            parse_ok("label(sensor_a)\nlabel(fused, sensor_a)\ndeclassifier(fused, trusted)");
        assert_eq!(anns.len(), 3);
        assert!(
            matches!(&anns[0], Annotation::Label { name, below: None, .. } if name == "sensor_a")
        );
        match &anns[1] {
            Annotation::Label { name, below, .. } => {
                assert_eq!(name, "fused");
                assert_eq!(below.as_deref(), Some("sensor_a"));
            }
            other => panic!("unexpected {other:?}"),
        }
        match &anns[2] {
            Annotation::Declassifier { from, to, .. } => {
                assert_eq!(from, "fused");
                assert_eq!(to, "trusted");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(anns.iter().all(|a| a.is_function_level()));
    }

    #[test]
    fn parse_labeled_channel_endpoint() {
        let anns = parse_ok("assume(channel(gyro, sizeof(SHMData), sensor_a))");
        match &anns[0] {
            Annotation::Channel { ptr, size, label, .. } => {
                assert_eq!(ptr, "gyro");
                assert_eq!(*size, AnnExpr::Sizeof("SHMData".into()));
                assert_eq!(label, "sensor_a");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parse_assume_declassify() {
        let anns = parse_ok("assume(declassify(gyro, 0, sizeof(SHMData), fused))");
        match &anns[0] {
            Annotation::AssumeDeclassify { ptr, offset, size, to, .. } => {
                assert_eq!(ptr, "gyro");
                assert_eq!(*offset, AnnExpr::Int(0));
                assert_eq!(*size, AnnExpr::Sizeof("SHMData".into()));
                assert_eq!(to, "fused");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn eval_division_by_zero_is_none() {
        let e = AnnExpr::Div(Box::new(AnnExpr::Int(4)), Box::new(AnnExpr::Int(0)));
        assert_eq!(e.eval(&|_| None), None);
    }

    #[test]
    fn unknown_annotation_reports_error() {
        let mut sources = SourceMap::new();
        let mut diags = Diagnostics::new();
        let anns = parse_annotation_body("frobnicate(x)", Span::dummy(), &mut sources, &mut diags);
        assert!(anns.is_empty());
        assert!(diags.has_errors());
    }

    #[test]
    fn malformed_assert_reports_error() {
        let mut sources = SourceMap::new();
        let mut diags = Diagnostics::new();
        let _ = parse_annotation_body("assert(unsafe(x))", Span::dummy(), &mut sources, &mut diags);
        assert!(diags.has_errors());
    }

    #[test]
    fn multiple_annotations_with_separators() {
        let anns = parse_ok("assume(noncore(a)); assume(noncore(b))");
        assert_eq!(anns.len(), 2);
    }

    /// Lexes `src` as a real file and parses its (single) annotation
    /// comment, returning the annotations plus the source map holding the
    /// real file — the end-to-end path the parser proper uses.
    fn parse_from_source(src: &str) -> (Vec<Annotation>, SourceMap) {
        let mut sources = SourceMap::new();
        let file = sources.add_file("fixture.c", src);
        let mut diags = Diagnostics::new();
        let toks = lex(file, src, &mut diags);
        let (body, span) = toks
            .iter()
            .find_map(|t| match &t.kind {
                TokenKind::Annotation(b) => Some((*b, t.span)),
                _ => None,
            })
            .expect("fixture must contain an annotation");
        let anns = parse_annotation_body(body.as_str(), span, &mut sources, &mut diags);
        assert!(!diags.has_errors(), "{diags:?}");
        (anns, sources)
    }

    #[test]
    fn each_annotation_gets_its_own_real_span() {
        let src = "/** SafeFlow Annotation\n    shminit\n    assume(noncore(ptr))\n*/";
        let (anns, _) = parse_from_source(src);
        assert_eq!(anns.len(), 2);
        let snip = |s: Span| &src[s.lo as usize..s.hi as usize];
        assert_eq!(snip(anns[0].span()), "shminit");
        assert_eq!(snip(anns[1].span()), "assume(noncore(ptr))");
    }

    #[test]
    fn crlf_and_tab_sources_agree_with_line_col() {
        // CRLF endings and tab indentation: the annotation's span must
        // resolve to the line/column of the annotation text itself.
        let src =
            "int x;\r\n/** SafeFlow Annotation\r\n\tassume(noncore(ptr))\r\n\tassert(safe(x))\r\n*/\r\n";
        let (anns, sources) = parse_from_source(src);
        assert_eq!(anns.len(), 2);
        let f = sources.file(anns[0].span().file);
        assert_eq!(&*f.name, "fixture.c");
        // `assume` starts right after the tab on line 3: character column 2.
        assert_eq!(f.line_col(anns[0].span().lo), (3, 2));
        assert_eq!(f.line_col(anns[1].span().lo), (4, 2));
        assert_eq!(sources.describe(anns[1].span()), "fixture.c:4:2");
    }

    #[test]
    fn annotation_syntax_errors_point_inside_the_annotation() {
        let src = "/** SafeFlow Annotation\r\n\tassume(noncore(42))\r\n*/";
        let mut sources = SourceMap::new();
        let file = sources.add_file("bad.c", src);
        let mut diags = Diagnostics::new();
        let toks = lex(file, src, &mut diags);
        let (body, span) = toks
            .iter()
            .find_map(|t| match &t.kind {
                TokenKind::Annotation(b) => Some((*b, t.span)),
                _ => None,
            })
            .unwrap();
        let _ = parse_annotation_body(body.as_str(), span, &mut sources, &mut diags);
        assert!(diags.has_errors());
        let err = diags.iter().find(|d| d.severity == crate::diag::Severity::Error).unwrap();
        // The anchor is the offending `42` token in the real file, not the
        // comment opener: line 2, character column 17 (after the tab).
        assert_eq!(sources.describe(err.span), "bad.c:2:17");
    }
}
