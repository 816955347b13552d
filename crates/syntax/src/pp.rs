//! A conforming-ish C preprocessor.
//!
//! Supports what embedded control code (and the monorepo-scale corpus)
//! actually uses:
//!
//! * `#include "name"` / `#include <name>` resolved against a
//!   [`VirtualFs`] (cycle-checked, depth-limited),
//! * object-like `#define NAME tokens...` and **function-like**
//!   `#define NAME(a, b) tokens...` with argument substitution and rescan
//!   (self-referential expansion is recursion-guarded, C99 6.10.3.4-style),
//! * `#undef NAME`,
//! * `#ifdef` / `#ifndef` / `#if` / `#elif` / `#else` / `#endif` with a
//!   full integer constant-expression evaluator: arithmetic, shifts,
//!   comparisons, bitwise and logical operators (short-circuiting),
//!   `?:`, parentheses, `defined NAME` / `defined(NAME)`, character
//!   constants, and macro expansion inside conditions,
//! * correct skipped-group semantics: directives inside an inactive
//!   branch are tracked for nesting but never evaluated, never define or
//!   undefine macros, and never diagnose their conditions,
//! * `#pragma` (ignored) and `#error` (diagnosed when reached).
//!
//! Intentionally restricted (diagnosed, never silently mis-expanded):
//! stringize `#` and token-paste `##` in macro bodies, variadic macros,
//! and macro invocations whose argument list crosses a directive or
//! end-of-file boundary. See DESIGN.md §14 for the full conformance map.
//!
//! The preprocessor is the sequential spine of parallel parsing: files are
//! lexed on a worker pool, but inclusion, conditional evaluation, and
//! macro expansion replay in strict sequential order over the pre-lexed
//! token caches ([`preprocess_with_cache`]), so diagnostic order and
//! `FileId` assignment are byte-identical at every `--jobs` value.

use crate::diag::Diagnostics;
use crate::lexer::{lex, lex_into};
use crate::source::SourceMap;
use crate::span::Span;
use crate::token::{Punct, Token, TokenKind};
use safeflow_util::hash::StableMap;
use safeflow_util::Symbol;
use std::collections::HashMap;
use std::rc::Rc;

/// Maximum `#include` nesting depth before the preprocessor assumes a cycle.
const MAX_INCLUDE_DEPTH: usize = 32;

/// Maximum macro-expansion nesting depth (distinct macros active at once).
/// Beyond this the expander emits the token unexpanded with a diagnostic —
/// deep chains are always a runaway definition, never real embedded code.
const MAX_EXPANSION_DEPTH: usize = 128;

/// Cap on tokens produced by macro expansion for one program. A chain of
/// multiplying macro bodies grows exponentially; past this cap expansion
/// degrades to pass-through (with one diagnostic) instead of exhausting
/// memory.
const MAX_EXPANDED_TOKENS: usize = 1 << 22;

/// An in-memory file system the preprocessor resolves `#include`s against.
///
/// # Examples
///
/// ```
/// use safeflow_syntax::pp::VirtualFs;
///
/// let mut fs = VirtualFs::new();
/// fs.add("shm.h", "#define SHM_SIZE 128\n");
/// assert!(fs.get("shm.h").is_some());
/// ```
#[derive(Debug, Default, Clone)]
pub struct VirtualFs {
    files: HashMap<String, String>,
}

impl VirtualFs {
    /// Creates an empty virtual file system.
    pub fn new() -> Self {
        VirtualFs::default()
    }

    /// Adds (or replaces) a file.
    pub fn add(&mut self, name: impl Into<String>, text: impl Into<String>) -> &mut Self {
        self.files.insert(name.into(), text.into());
        self
    }

    /// Fetches a file's contents by name.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.files.get(name).map(|s| s.as_str())
    }

    /// Every file as `(name, text)`, in no particular order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.files.iter().map(|(name, text)| (name.as_str(), text.as_str()))
    }

    /// Names of all files, sorted for determinism.
    pub fn names(&self) -> Vec<&str> {
        let mut v: Vec<&str> = self.files.keys().map(|s| s.as_str()).collect();
        v.sort_unstable();
        v
    }
}

/// A macro definition: object-like (`params == None`) or function-like
/// (`params == Some(...)`, possibly empty for `F()`).
#[derive(Debug)]
struct Macro {
    params: Option<Vec<Symbol>>,
    body: Vec<Token>,
}

/// A pre-lexed source file fed to [`preprocess_with_cache`]: its token
/// stream (spans already carry the pre-registered `FileId`) and the lexer
/// diagnostics for the file, surfaced once at first inclusion so emission
/// order matches the sequential preprocessor exactly.
pub(crate) struct LexedFile {
    pub(crate) tokens: Vec<Token>,
    pub(crate) diags: Option<Diagnostics>,
}

/// Runs the preprocessor on `main_name` over `cache`, the program's files
/// pre-lexed by [`crate::preprocess_program_jobs`] (each with its
/// registered `FileId`), returning the fully expanded token stream (ending
/// in a single `Eof`). An `#include` of a file not in `cache` is diagnosed
/// as not found; problems are reported to `diags`.
///
/// Lexing happens on the worker pool, while inclusion/expansion order (and
/// therefore diagnostic order) stays exactly sequential.
pub(crate) fn preprocess_with_cache(
    main_name: &str,
    sources: &mut SourceMap,
    diags: &mut Diagnostics,
    cache: &mut HashMap<String, LexedFile>,
) -> Vec<Token> {
    // The lexed total is the right first size for the output: directives
    // and a guarded header's re-inclusions emit nothing, so only macro
    // growth or an unguarded re-inclusion outgrows it.
    let lexed: usize = cache.values().map(|f| f.tokens.len()).sum();
    let mut pp = Preprocessor {
        sources,
        diags,
        cache,
        macros: StableMap::default(),
        include_stack: Vec::new(),
        out: Vec::with_capacity(lexed),
        hide: Vec::new(),
        spare: Pool::default(),
        spare_lists: Pool::default(),
        defined: Symbol::intern("defined"),
        produced: 0,
        overflowed: false,
    };
    pp.process_file(main_name, Span::dummy());
    let eof_span = pp.out.last().map(|t| t.span).unwrap_or(Span::dummy());
    pp.out.push(Token::new(TokenKind::Eof, eof_span));
    pp.out
}

struct Preprocessor<'a> {
    sources: &'a mut SourceMap,
    diags: &'a mut Diagnostics,
    cache: &'a mut HashMap<String, LexedFile>,
    macros: StableMap<Symbol, Rc<Macro>>,
    include_stack: Vec<String>,
    out: Vec<Token>,
    /// The names of the macros being expanded (see [`Self::expand_one`]),
    /// kept between top-level expansions for its allocation.
    hide: Vec<Symbol>,
    /// Token buffers for macro arguments, their expansions, substituted
    /// bodies and `#if` conditions, lent out and returned cleared.
    spare: Pool<Token>,
    /// Argument lists of function-like macro invocations, likewise.
    spare_lists: Pool<Vec<Token>>,
    /// `defined`, interned once.
    defined: Symbol,
    /// Tokens produced by macro expansion so far (the blowup guard).
    produced: usize,
    overflowed: bool,
}

/// Cleared buffers kept for reuse, so that expanding a macro or
/// evaluating a condition allocates only while the buffers still grow.
struct Pool<T>(Vec<Vec<T>>);

impl<T> Default for Pool<T> {
    fn default() -> Self {
        Pool(Vec::new())
    }
}

impl<T> Pool<T> {
    fn take(&mut self) -> Vec<T> {
        self.0.pop().unwrap_or_default()
    }

    fn give(&mut self, mut v: Vec<T>) {
        v.clear();
        self.0.push(v);
    }
}

/// State of one `#if`/`#ifdef` region.
#[derive(Debug, Clone, Copy)]
struct CondState {
    /// Are we currently emitting tokens in this region?
    active: bool,
    /// Has any branch of this region been taken yet? (Set immediately for
    /// groups opened inside a skipped region, so no nested branch can ever
    /// activate.)
    taken: bool,
    /// Was the *enclosing* context active?
    parent_active: bool,
    /// Has `#else` been seen? (`#elif`/`#else` after it are errors.)
    seen_else: bool,
}

impl<'a> Preprocessor<'a> {
    fn process_file(&mut self, name: &str, include_span: Span) {
        if self.include_stack.iter().any(|n| n == name) {
            self.diags.error(include_span, format!("#include cycle involving \"{name}\""));
            return;
        }
        if self.include_stack.len() >= MAX_INCLUDE_DEPTH {
            self.diags.error(include_span, "#include nesting too deep");
            return;
        }
        // A file reuses its pre-registered FileId and token stream (taken
        // and restored around processing — tokens are `Copy` but the vector
        // itself must survive repeated inclusion).
        let Some(f) = self.cache.get_mut(name) else {
            self.diags.error(include_span, format!("included file \"{name}\" not found"));
            return;
        };
        if let Some(d) = f.diags.take() {
            self.diags.append(d);
        }
        let tokens = std::mem::take(&mut f.tokens);
        self.include_stack.push(name.to_string());

        let mut conds: Vec<CondState> = Vec::new();
        let mut i = 0;
        while i < tokens.len() {
            let tok = tokens[i];
            let active = conds.last().map(|c| c.active).unwrap_or(true);
            match tok.kind {
                TokenKind::Directive(d) => {
                    self.handle_directive(d.as_str(), tok.span, &mut conds, active);
                    i += 1;
                }
                TokenKind::Eof => i += 1,
                _ if !active => i += 1,
                TokenKind::Ident(_) => {
                    // Expansion may consume following tokens (a
                    // function-like macro's argument list), so it drives
                    // the cursor itself.
                    let mut out = std::mem::take(&mut self.out);
                    let mut hide = std::mem::take(&mut self.hide);
                    i = self.expand_one(&tokens, i, &mut hide, &mut out);
                    self.out = out;
                    self.hide = hide;
                }
                _ => {
                    self.out.push(tok);
                    i += 1;
                }
            }
        }
        if !conds.is_empty() {
            self.diags.error(include_span, format!("unterminated #if/#ifdef in \"{name}\""));
        }
        self.include_stack.pop();
        if let Some(f) = self.cache.get_mut(name) {
            f.tokens = tokens;
        }
    }

    /// Expands the token at `toks[i]` into `out`, consuming the argument
    /// list when it begins a function-like macro invocation. Returns the
    /// index of the first unconsumed token. `hide` is the stack of macro
    /// names currently being expanded: occurrences of those names are
    /// emitted verbatim ("painted blue"), which is what terminates
    /// self-referential expansion.
    fn expand_one(
        &mut self,
        toks: &[Token],
        i: usize,
        hide: &mut Vec<Symbol>,
        out: &mut Vec<Token>,
    ) -> usize {
        let tok = toks[i];
        let TokenKind::Ident(name) = tok.kind else {
            out.push(tok);
            return i + 1;
        };
        if self.overflowed || hide.contains(&name) {
            out.push(tok);
            return i + 1;
        }
        let Some(mac) = self.macros.get(&name).cloned() else {
            out.push(tok);
            return i + 1;
        };
        if hide.len() >= MAX_EXPANSION_DEPTH {
            self.diags.error(
                tok.span,
                format!("macro expansion nested deeper than {MAX_EXPANSION_DEPTH} levels"),
            );
            out.push(tok);
            return i + 1;
        }
        match &mac.params {
            None => {
                hide.push(name);
                let mut j = 0;
                while j < mac.body.len() {
                    j = self.expand_one(&mac.body, j, hide, out);
                }
                hide.pop();
                self.bump_produced(mac.body.len(), tok.span);
                i + 1
            }
            Some(params) => {
                // A function-like macro name not followed by `(` is an
                // ordinary identifier (C99 6.10.3p10).
                if !matches!(toks.get(i + 1).map(|t| t.kind), Some(TokenKind::Punct(Punct::LParen)))
                {
                    out.push(tok);
                    return i + 1;
                }
                let mut args = self.spare_lists.take();
                let Some(after) = self.collect_args(toks, i + 2, tok.span, name, &mut args) else {
                    self.give_lists(args);
                    out.push(tok);
                    return i + 1;
                };
                // `F()` with zero declared parameters arrives as one empty
                // argument; collapse it.
                let argc = if params.is_empty() && args.len() == 1 && args[0].is_empty() {
                    0
                } else {
                    args.len()
                };
                if argc != params.len() {
                    self.diags.error(
                        tok.span,
                        format!(
                            "macro `{}` expects {} argument(s), got {argc}",
                            name.as_str(),
                            params.len()
                        ),
                    );
                    self.give_lists(args);
                    return after;
                }
                // Arguments are fully macro-expanded *before* substitution
                // (and before `name` joins the hide stack), as C does.
                let mut expanded_args = self.spare_lists.take();
                for arg in &args {
                    let mut buf = self.spare.take();
                    let mut j = 0;
                    while j < arg.len() {
                        j = self.expand_one(arg, j, hide, &mut buf);
                    }
                    expanded_args.push(buf);
                }
                let mut subst = self.spare.take();
                for bt in &mac.body {
                    match bt.kind {
                        TokenKind::Ident(p) => match params.iter().position(|q| *q == p) {
                            Some(k) => subst.extend_from_slice(&expanded_args[k]),
                            None => subst.push(*bt),
                        },
                        _ => subst.push(*bt),
                    }
                }
                self.give_lists(args);
                self.give_lists(expanded_args);
                self.bump_produced(subst.len(), tok.span);
                // Rescan the substituted body for further expansion.
                hide.push(name);
                let mut j = 0;
                while j < subst.len() {
                    j = self.expand_one(&subst, j, hide, out);
                }
                hide.pop();
                self.spare.give(subst);
                after
            }
        }
    }

    /// Returns an argument list and its arguments to the pools.
    fn give_lists(&mut self, mut lists: Vec<Vec<Token>>) {
        for list in lists.drain(..) {
            self.spare.give(list);
        }
        self.spare_lists.give(lists);
    }

    /// Collects a function-like macro's arguments into `args` (empty on
    /// entry), starting just after the opening `(` at `toks[start]`.
    /// Commas at paren depth 1 separate arguments; nested parens nest.
    /// Returns the index after the closing `)`, or `None` (with a
    /// diagnostic) if the invocation runs into a directive or end of file.
    fn collect_args(
        &mut self,
        toks: &[Token],
        start: usize,
        span: Span,
        name: Symbol,
        args: &mut Vec<Vec<Token>>,
    ) -> Option<usize> {
        args.push(self.spare.take());
        let mut depth = 1usize;
        let mut j = start;
        while j < toks.len() {
            let t = toks[j];
            let arg = args.last_mut().expect("one argument open");
            match t.kind {
                TokenKind::Punct(Punct::LParen) => {
                    depth += 1;
                    arg.push(t);
                }
                TokenKind::Punct(Punct::RParen) => {
                    depth -= 1;
                    if depth == 0 {
                        return Some(j + 1);
                    }
                    arg.push(t);
                }
                TokenKind::Punct(Punct::Comma) if depth == 1 => args.push(self.spare.take()),
                TokenKind::Eof | TokenKind::Directive(_) => break,
                _ => arg.push(t),
            }
            j += 1;
        }
        self.diags.error(
            span,
            format!(
                "unterminated invocation of macro `{}` (argument list must close before the \
                 next directive or end of file)",
                name.as_str()
            ),
        );
        None
    }

    /// Accounts `n` freshly produced expansion tokens toward the blowup cap.
    fn bump_produced(&mut self, n: usize, span: Span) {
        self.produced += n;
        if self.produced > MAX_EXPANDED_TOKENS && !self.overflowed {
            self.overflowed = true;
            self.diags.error(
                span,
                format!(
                    "macro expansion produced more than {MAX_EXPANDED_TOKENS} tokens; \
                     further expansion disabled"
                ),
            );
        }
    }

    fn handle_directive(
        &mut self,
        text: &str,
        span: Span,
        conds: &mut Vec<CondState>,
        active: bool,
    ) {
        let (word, rest) = split_word(text);
        match word {
            "include" => {
                if !active {
                    return;
                }
                let rest = rest.trim();
                let name = rest
                    .strip_prefix('"')
                    .and_then(|r| r.strip_suffix('"'))
                    .or_else(|| rest.strip_prefix('<').and_then(|r| r.strip_suffix('>')));
                match name {
                    Some(n) => self.process_file(n, span),
                    None => self.diags.error(span, "malformed #include"),
                }
            }
            "define" => {
                if !active {
                    return;
                }
                self.handle_define(rest, span);
            }
            "undef" => {
                if !active {
                    return;
                }
                let (name, _) = split_word(rest.trim_start());
                if !is_macro_name(name) {
                    self.diags.error(span, "#undef with no macro name");
                    return;
                }
                self.macros.remove(&Symbol::intern(name));
            }
            "ifdef" | "ifndef" => {
                if !active {
                    // Skipped group: track nesting only, never consult the
                    // macro table.
                    conds.push(CondState {
                        active: false,
                        taken: true,
                        parent_active: false,
                        seen_else: false,
                    });
                    return;
                }
                let (name, _) = split_word(rest.trim_start());
                if !is_macro_name(name) {
                    self.diags.error(span, format!("#{word} with no macro name"));
                }
                let defined = self.macros.contains_key(&Symbol::intern(name));
                let cond = if word == "ifdef" { defined } else { !defined };
                conds.push(CondState {
                    active: cond,
                    taken: cond,
                    parent_active: true,
                    seen_else: false,
                });
            }
            "if" => {
                if !active {
                    // Skipped group: the condition must NOT be evaluated —
                    // it may use forms only meaningful on another target.
                    conds.push(CondState {
                        active: false,
                        taken: true,
                        parent_active: false,
                        seen_else: false,
                    });
                    return;
                }
                let cond = self.eval_if_condition(rest.trim(), span);
                conds.push(CondState {
                    active: cond,
                    taken: cond,
                    parent_active: true,
                    seen_else: false,
                });
            }
            "else" => match conds.last_mut() {
                Some(c) => {
                    if c.seen_else {
                        self.diags.error(span, "#else after #else");
                    }
                    c.seen_else = true;
                    c.active = c.parent_active && !c.taken;
                    c.taken = true;
                }
                None => self.diags.error(span, "#else without matching #if"),
            },
            "elif" => match conds.last() {
                Some(c) => {
                    if c.seen_else {
                        self.diags.error(span, "#elif after #else");
                    }
                    // Evaluate the condition only when this group could
                    // still take a branch; a skipped or already-satisfied
                    // group must not diagnose (or expand macros in) its
                    // remaining conditions.
                    let live = c.parent_active && !c.taken && !c.seen_else;
                    let cond = live && self.eval_if_condition(rest.trim(), span);
                    let c = conds.last_mut().unwrap();
                    c.active = cond;
                    if cond {
                        c.taken = true;
                    }
                }
                None => self.diags.error(span, "#elif without matching #if"),
            },
            "endif" => {
                if conds.pop().is_none() {
                    self.diags.error(span, "#endif without matching #if");
                }
            }
            "pragma" => {}
            "error" => {
                if active {
                    self.diags.error(span, format!("#error {rest}"));
                }
            }
            other => {
                if active {
                    self.diags
                        .error(span, format!("unsupported preprocessor directive `#{other}`"));
                }
            }
        }
    }

    /// Parses and records one `#define` (object-like or function-like).
    fn handle_define(&mut self, rest: &str, span: Span) {
        let rest = rest.trim_start();
        let (name, after_name) = split_word(rest);
        if !is_macro_name(name) {
            self.diags.error(span, "#define with no macro name");
            return;
        }
        // Function-like iff `(` immediately follows the name, no space.
        let (params, body) = if let Some(paren_rest) = after_name.strip_prefix('(') {
            let Some(close) = paren_rest.find(')') else {
                self.diags.error(
                    span,
                    format!("unterminated parameter list in function-like macro `{name}`"),
                );
                return;
            };
            let inner = &paren_rest[..close];
            let body = &paren_rest[close + 1..];
            let mut params = Vec::new();
            if !inner.trim().is_empty() {
                for p in inner.split(',') {
                    let p = p.trim();
                    if p == "..." {
                        self.diags.error(span, format!("variadic macro `{name}` is not supported"));
                        return;
                    }
                    if !is_macro_name(p) {
                        self.diags
                            .error(span, format!("malformed parameter `{p}` in macro `{name}`"));
                        return;
                    }
                    let sym = Symbol::intern(p);
                    if params.contains(&sym) {
                        self.diags
                            .error(span, format!("duplicate parameter `{p}` in macro `{name}`"));
                        return;
                    }
                    params.push(sym);
                }
            }
            (Some(params), body)
        } else {
            (None, after_name)
        };
        let body = body.trim();
        if body.contains('#') {
            self.diags.error(
                span,
                format!("`#`/`##` operators are not supported in the body of macro `{name}`"),
            );
            return;
        }
        let mini = self.sources.add_synthetic(&format!("<macro {name}>"), body);
        let mut body_toks = lex(mini, body, self.diags);
        body_toks.retain(|t| t.kind != TokenKind::Eof);
        self.macros.insert(Symbol::intern(name), Rc::new(Macro { params, body: body_toks }));
    }

    /// Evaluates a `#if`/`#elif` condition: lex, resolve `defined`,
    /// macro-expand, then fold the C integer constant expression.
    /// Evaluation errors anchor at the directive's span and render the
    /// offending condition text.
    fn eval_if_condition(&mut self, expr: &str, span: Span) -> bool {
        if expr.is_empty() {
            self.diags.error(span, "#if with no condition");
            return false;
        }
        let mini = self.sources.add_synthetic("<#if>", expr);
        let mut toks = self.spare.take();
        lex_into(mini, expr, self.diags, &mut toks);
        toks.retain(|t| t.kind != TokenKind::Eof);
        let mut resolved = self.spare.take();
        let outcome = match self.resolve_defined(&toks, &mut resolved) {
            Ok(()) => {
                let mut expanded = self.spare.take();
                let mut hide = std::mem::take(&mut self.hide);
                let mut j = 0;
                while j < resolved.len() {
                    j = self.expand_one(&resolved, j, &mut hide, &mut expanded);
                }
                self.hide = hide;
                let mut ev = CondEval { toks: &expanded, i: 0, live: true, failed: None };
                let v = ev.ternary();
                if ev.failed.is_none() && ev.i < expanded.len() {
                    ev.failed = Some(format!(
                        "unexpected {} after expression",
                        expanded[ev.i].kind.describe()
                    ));
                }
                let outcome = match ev.failed {
                    Some(msg) => Err(msg),
                    None => Ok(v),
                };
                self.spare.give(expanded);
                outcome
            }
            Err(msg) => Err(msg),
        };
        self.spare.give(toks);
        self.spare.give(resolved);
        match outcome {
            Ok(v) => v != 0,
            Err(msg) => {
                self.diags.error(span, format!("in #if condition `{expr}`: {msg}"));
                false
            }
        }
    }

    /// Replaces `defined NAME` / `defined(NAME)` with `1`/`0` tokens
    /// before macro expansion, per C99 6.10.1p1.
    fn resolve_defined(&mut self, toks: &[Token], out: &mut Vec<Token>) -> Result<(), String> {
        let mut i = 0;
        while i < toks.len() {
            let t = toks[i];
            if t.kind != TokenKind::Ident(self.defined) {
                out.push(t);
                i += 1;
                continue;
            }
            let (name, consumed) = match toks.get(i + 1).map(|t| t.kind) {
                Some(TokenKind::Ident(n)) => (n, 2),
                Some(TokenKind::Punct(Punct::LParen)) => {
                    match (toks.get(i + 2).map(|t| t.kind), toks.get(i + 3).map(|t| t.kind)) {
                        (Some(TokenKind::Ident(n)), Some(TokenKind::Punct(Punct::RParen))) => {
                            (n, 4)
                        }
                        _ => return Err("malformed `defined` operator".to_string()),
                    }
                }
                _ => return Err("expected a macro name after `defined`".to_string()),
            };
            let v = i64::from(self.macros.contains_key(&name));
            out.push(Token::new(TokenKind::IntLit(v), t.span));
            i += consumed;
        }
        Ok(())
    }
}

/// Evaluator for preprocessed `#if` conditions: a precedence-climbing
/// parser over the expanded token list, computing with wrapping `i64`
/// arithmetic (the paper's targets are ILP32, but conditional folds only
/// compare small configuration constants). Remaining identifiers and
/// keywords evaluate to 0, as C requires. The first error wins and is
/// carried out-of-band in `failed`; `live` suppresses division-by-zero in
/// short-circuited operands (`0 && 1/0` is fine, as in C).
struct CondEval<'a> {
    toks: &'a [Token],
    i: usize,
    live: bool,
    failed: Option<String>,
}

impl<'a> CondEval<'a> {
    fn fail(&mut self, msg: String) -> i64 {
        if self.failed.is_none() {
            self.failed = Some(msg);
        }
        0
    }

    fn peek_punct(&self) -> Option<Punct> {
        match self.toks.get(self.i).map(|t| t.kind) {
            Some(TokenKind::Punct(p)) => Some(p),
            _ => None,
        }
    }

    fn ternary(&mut self) -> i64 {
        let cond = self.binary(0);
        if self.peek_punct() != Some(Punct::Question) {
            return cond;
        }
        self.i += 1;
        let outer_live = self.live;
        self.live = outer_live && cond != 0;
        let then = self.ternary();
        self.live = outer_live;
        if self.peek_punct() != Some(Punct::Colon) {
            return self.fail("expected `:` in conditional".to_string());
        }
        self.i += 1;
        self.live = outer_live && cond == 0;
        let els = self.ternary();
        self.live = outer_live;
        if cond != 0 {
            then
        } else {
            els
        }
    }

    /// Binding power of a binary operator, or `None` if `p` is not one.
    fn prec(p: Punct) -> Option<u8> {
        Some(match p {
            Punct::PipePipe => 1,
            Punct::AmpAmp => 2,
            Punct::Pipe => 3,
            Punct::Caret => 4,
            Punct::Amp => 5,
            Punct::EqEq | Punct::Ne => 6,
            Punct::Lt | Punct::Gt | Punct::Le | Punct::Ge => 7,
            Punct::Shl | Punct::Shr => 8,
            Punct::Plus | Punct::Minus => 9,
            Punct::Star | Punct::Slash | Punct::Percent => 10,
            _ => return None,
        })
    }

    fn binary(&mut self, min_prec: u8) -> i64 {
        let mut lhs = self.unary();
        while let Some(op) = self.peek_punct() {
            let Some(prec) = Self::prec(op) else { break };
            if prec < min_prec {
                break;
            }
            self.i += 1;
            // Logical operators short-circuit: the right operand still
            // parses, but arithmetic faults in it are not errors.
            let outer_live = self.live;
            match op {
                Punct::AmpAmp => self.live = outer_live && lhs != 0,
                Punct::PipePipe => self.live = outer_live && lhs == 0,
                _ => {}
            }
            let rhs = self.binary(prec + 1);
            self.live = outer_live;
            lhs = self.apply(op, lhs, rhs);
            if self.failed.is_some() {
                return 0;
            }
        }
        lhs
    }

    fn apply(&mut self, op: Punct, a: i64, b: i64) -> i64 {
        match op {
            Punct::PipePipe => i64::from(a != 0 || b != 0),
            Punct::AmpAmp => i64::from(a != 0 && b != 0),
            Punct::Pipe => a | b,
            Punct::Caret => a ^ b,
            Punct::Amp => a & b,
            Punct::EqEq => i64::from(a == b),
            Punct::Ne => i64::from(a != b),
            Punct::Lt => i64::from(a < b),
            Punct::Gt => i64::from(a > b),
            Punct::Le => i64::from(a <= b),
            Punct::Ge => i64::from(a >= b),
            Punct::Shl => a.wrapping_shl(b as u32 & 63),
            Punct::Shr => a.wrapping_shr(b as u32 & 63),
            Punct::Plus => a.wrapping_add(b),
            Punct::Minus => a.wrapping_sub(b),
            Punct::Star => a.wrapping_mul(b),
            Punct::Slash | Punct::Percent => {
                if b == 0 {
                    if self.live {
                        return self.fail("division by zero".to_string());
                    }
                    return 0;
                }
                if op == Punct::Slash {
                    a.wrapping_div(b)
                } else {
                    a.wrapping_rem(b)
                }
            }
            _ => unreachable!("apply called on non-binary operator"),
        }
    }

    fn unary(&mut self) -> i64 {
        match self.peek_punct() {
            Some(Punct::Bang) => {
                self.i += 1;
                i64::from(self.unary() == 0)
            }
            Some(Punct::Tilde) => {
                self.i += 1;
                !self.unary()
            }
            Some(Punct::Minus) => {
                self.i += 1;
                self.unary().wrapping_neg()
            }
            Some(Punct::Plus) => {
                self.i += 1;
                self.unary()
            }
            _ => self.primary(),
        }
    }

    fn primary(&mut self) -> i64 {
        let Some(tok) = self.toks.get(self.i) else {
            return self.fail("unexpected end of condition".to_string());
        };
        match tok.kind {
            TokenKind::IntLit(v) => {
                self.i += 1;
                v
            }
            TokenKind::CharLit(v) => {
                self.i += 1;
                v
            }
            // Identifiers surviving macro expansion (and keywords, which
            // have no meaning at preprocessing time) evaluate to 0.
            TokenKind::Ident(_) | TokenKind::Keyword(_) => {
                self.i += 1;
                0
            }
            TokenKind::Punct(Punct::LParen) => {
                self.i += 1;
                let v = self.ternary();
                if self.peek_punct() == Some(Punct::RParen) {
                    self.i += 1;
                    v
                } else {
                    self.fail("expected `)` in condition".to_string())
                }
            }
            TokenKind::FloatLit(_) => {
                self.fail("floating-point constants are not allowed in #if".to_string())
            }
            ref other => self.fail(format!("unexpected {}", other.describe())),
        }
    }
}

/// Whether `s` is a valid macro (or macro-parameter) name.
fn is_macro_name(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

fn split_word(s: &str) -> (&str, &str) {
    let s = s.trim_start();
    match s.find(|c: char| !(c.is_ascii_alphanumeric() || c == '_')) {
        Some(i) => (&s[..i], &s[i..]),
        None => (s, ""),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(main: &str, files: &[(&str, &str)]) -> (Vec<TokenKind>, Diagnostics) {
        let mut fs = VirtualFs::new();
        for (n, t) in files {
            fs.add(*n, *t);
        }
        let pre = crate::preprocess_program_jobs(main, &fs, 1);
        (pre.tokens.into_iter().map(|t| t.kind).collect(), pre.diags)
    }

    fn idents(toks: &[TokenKind]) -> Vec<String> {
        toks.iter()
            .filter_map(|t| match t {
                TokenKind::Ident(s) => Some(s.as_str().to_string()),
                _ => None,
            })
            .collect()
    }

    fn ints(toks: &[TokenKind]) -> Vec<i64> {
        toks.iter()
            .filter_map(|t| match t {
                TokenKind::IntLit(v) => Some(*v),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn object_macro_expansion() {
        let (toks, d) = run("m.c", &[("m.c", "#define N 42\nint x = N;")]);
        assert!(!d.has_errors());
        assert!(toks.contains(&TokenKind::IntLit(42)));
        assert!(!idents(&toks).contains(&"N".to_string()));
    }

    #[test]
    fn nested_macro_expansion() {
        let (toks, d) = run("m.c", &[("m.c", "#define A B\n#define B 7\nint x = A;")]);
        assert!(!d.has_errors());
        assert!(toks.contains(&TokenKind::IntLit(7)));
    }

    #[test]
    fn self_referential_macro_terminates() {
        let (toks, d) = run("m.c", &[("m.c", "#define X X\nint X;")]);
        assert!(!d.has_errors());
        assert!(idents(&toks).contains(&"X".to_string()));
    }

    #[test]
    fn function_like_macro_expands_arguments() {
        let (toks, d) = run("m.c", &[("m.c", "#define SQ(x) ((x)*(x))\nint y = SQ(3);")]);
        assert!(!d.has_errors(), "{d:?}");
        assert_eq!(ints(&toks), vec![3, 3]);
        assert!(!idents(&toks).contains(&"SQ".to_string()));
    }

    #[test]
    fn function_like_macro_multi_arg_and_nested_calls() {
        let src =
            "#define ADD(a, b) ((a) + (b))\n#define TWICE(x) ADD(x, x)\nint y = TWICE(ADD(1, 2));";
        let (toks, d) = run("m.c", &[("m.c", src)]);
        assert!(!d.has_errors(), "{d:?}");
        // TWICE(ADD(1,2)) -> ((ADD(1,2)) + (ADD(1,2))) -> ((((1)+(2))) + (((1)+(2))))
        assert_eq!(ints(&toks), vec![1, 2, 1, 2]);
        assert!(!idents(&toks).iter().any(|s| s == "ADD" || s == "TWICE"));
    }

    #[test]
    fn function_like_name_without_parens_is_plain_ident() {
        let (toks, d) = run("m.c", &[("m.c", "#define F(x) (x)\nint F;")]);
        assert!(!d.has_errors());
        assert!(idents(&toks).contains(&"F".to_string()));
    }

    #[test]
    fn function_like_arity_mismatch_diagnosed() {
        let (_, d) = run("m.c", &[("m.c", "#define ADD(a, b) ((a)+(b))\nint y = ADD(1);")]);
        assert!(d.has_errors());
        assert!(format!("{d:?}").contains("expects 2 argument(s), got 1"), "{d:?}");
    }

    #[test]
    fn function_like_recursion_is_guarded() {
        let src = "#define F(x) F(x)\nint y = F(1);";
        let (toks, d) = run("m.c", &[("m.c", src)]);
        assert!(!d.has_errors(), "{d:?}");
        // F(1) expands to F(1); the inner F is painted blue and survives.
        assert!(idents(&toks).contains(&"F".to_string()));
        assert!(toks.contains(&TokenKind::IntLit(1)));
    }

    #[test]
    fn mutually_recursive_function_macros_terminate() {
        let src = "#define A(x) B(x)\n#define B(x) A(x)\nint y = A(1);";
        let (toks, d) = run("m.c", &[("m.c", src)]);
        assert!(!d.has_errors(), "{d:?}");
        assert!(idents(&toks).contains(&"A".to_string()));
    }

    #[test]
    fn zero_arg_function_macro() {
        let (toks, d) = run("m.c", &[("m.c", "#define NIL() 0\nint y = NIL();")]);
        assert!(!d.has_errors(), "{d:?}");
        assert_eq!(ints(&toks), vec![0]);
    }

    #[test]
    fn commas_in_nested_parens_do_not_split_args() {
        let src = "#define FST(p, q) (p)\n#define PAIR(a, b) (a, b)\nint y = FST(PAIR(1, 2), 3);";
        let (toks, d) = run("m.c", &[("m.c", src)]);
        assert!(!d.has_errors(), "{d:?}");
        assert_eq!(ints(&toks), vec![1, 2]);
    }

    #[test]
    fn unterminated_invocation_diagnosed() {
        let (_, d) = run("m.c", &[("m.c", "#define F(x) (x)\nint y = F(1\n#define Z 2\n;")]);
        assert!(d.has_errors());
        assert!(format!("{d:?}").contains("unterminated invocation"), "{d:?}");
    }

    #[test]
    fn variadic_and_paste_are_rejected() {
        let (_, d) = run("m.c", &[("m.c", "#define V(a, ...) (a)\n")]);
        assert!(d.has_errors());
        let (_, d) = run("m.c", &[("m.c", "#define P(a, b) a ## b\n")]);
        assert!(d.has_errors());
    }

    #[test]
    fn include_splices_file() {
        let (toks, d) = run("main.c", &[("main.c", "#include \"h.h\"\nint b;"), ("h.h", "int a;")]);
        assert!(!d.has_errors());
        assert_eq!(idents(&toks), vec!["a", "b"]);
    }

    #[test]
    fn include_cycle_detected() {
        let (_, d) = run("a.h", &[("a.h", "#include \"b.h\""), ("b.h", "#include \"a.h\"")]);
        assert!(d.has_errors());
    }

    #[test]
    fn missing_include_reported() {
        let (_, d) = run("m.c", &[("m.c", "#include \"nope.h\"")]);
        assert!(d.has_errors());
    }

    #[test]
    fn macro_defined_in_one_file_used_in_another() {
        let files: &[(&str, &str)] = &[
            ("main.c", "#define SCALE(x) ((x) * 4)\n#include \"u.c\"\n"),
            ("u.c", "int y = SCALE(2);"),
        ];
        let (toks, d) = run("main.c", files);
        assert!(!d.has_errors(), "{d:?}");
        assert_eq!(ints(&toks), vec![2, 4]);
    }

    #[test]
    fn ifdef_branches() {
        let src = "#define YES 1\n#ifdef YES\nint a;\n#else\nint b;\n#endif\n#ifdef NO\nint c;\n#else\nint d;\n#endif";
        let (toks, d) = run("m.c", &[("m.c", src)]);
        assert!(!d.has_errors());
        assert_eq!(idents(&toks), vec!["a", "d"]);
    }

    #[test]
    fn ifndef_and_undef() {
        let src = "#define F 1\n#undef F\n#ifndef F\nint ok;\n#endif";
        let (toks, d) = run("m.c", &[("m.c", src)]);
        assert!(!d.has_errors());
        assert_eq!(idents(&toks), vec!["ok"]);
    }

    #[test]
    fn if_integer_conditions() {
        let src = "#if 0\nint a;\n#elif 1\nint b;\n#else\nint c;\n#endif";
        let (toks, d) = run("m.c", &[("m.c", src)]);
        assert!(!d.has_errors());
        assert_eq!(idents(&toks), vec!["b"]);
    }

    #[test]
    fn if_defined_condition() {
        let src = "#define HAVE 1\n#if defined(HAVE)\nint y;\n#endif\n#if !defined(MISSING)\nint z;\n#endif";
        let (toks, d) = run("m.c", &[("m.c", src)]);
        assert!(!d.has_errors());
        assert_eq!(idents(&toks), vec!["y", "z"]);
    }

    #[test]
    fn if_defined_with_space_before_paren() {
        // Regression (ISSUE 8): `defined (X)` with whitespace before the
        // paren used to fall into a string-prefix branch that looked up
        // the literal symbol "(X)" and always evaluated false.
        let src =
            "#define X 1\n#if defined (X)\nint yes;\n#endif\n#if defined ( X )\nint also;\n#endif";
        let (toks, d) = run("m.c", &[("m.c", src)]);
        assert!(!d.has_errors(), "{d:?}");
        assert_eq!(idents(&toks), vec!["yes", "also"]);
    }

    #[test]
    fn if_arithmetic_and_logical_operators() {
        let cases: &[(&str, bool)] = &[
            ("1 + 1 == 2", true),
            ("2 * 3 > 5", true),
            ("7 / 2 == 3", true),
            ("7 % 2 == 1", true),
            ("1 << 4 == 16", true),   // shift binds tighter than == in C
            ("1 << (4 == 16)", true), // 1 << 0
            ("(16 >> 2) == 4", true),
            ("-1 < 0", true),
            ("!0 && !!1", true),
            ("1 && 0", false),
            ("0 || 2", true),
            ("~0 == -1", true),
            ("(1 ? 10 : 20) == 10", true),
            ("(0 ? 10 : 20) == 20", true),
            ("'A' == 65", true),
            ("(3 | 4) == 7 && (3 & 2) == 2 && (3 ^ 1) == 2", true),
            ("1 == 1 == 1", true), // (1 == 1) == 1
            ("10 >= 10 && 10 <= 10 && 9 != 10", true),
        ];
        for (cond, expect) in cases {
            let src = format!("#if {cond}\nint yes;\n#else\nint no;\n#endif");
            let (toks, d) = run("m.c", &[("m.c", src.as_str())]);
            assert!(!d.has_errors(), "`{cond}`: {d:?}");
            let want = if *expect { "yes" } else { "no" };
            assert_eq!(idents(&toks), vec![want], "condition `{cond}`");
        }
    }

    #[test]
    fn if_macro_expansion_in_condition() {
        let src = "#define LEVEL 3\n#define DOUBLE(x) ((x) * 2)\n#if DOUBLE(LEVEL) == 6\nint yes;\n#endif";
        let (toks, d) = run("m.c", &[("m.c", src)]);
        assert!(!d.has_errors(), "{d:?}");
        assert_eq!(idents(&toks), vec!["yes"]);
    }

    #[test]
    fn if_undefined_identifier_is_zero() {
        let src = "#if UNDEFINED_THING\nint a;\n#else\nint b;\n#endif\n#if UNDEFINED_THING == 0\nint c;\n#endif";
        let (toks, d) = run("m.c", &[("m.c", src)]);
        assert!(!d.has_errors(), "{d:?}");
        assert_eq!(idents(&toks), vec!["b", "c"]);
    }

    #[test]
    fn if_short_circuit_suppresses_division_by_zero() {
        let src =
            "#define N 0\n#if defined(N) && N != 0 && 10 / N > 1\nint a;\n#else\nint b;\n#endif";
        let (toks, d) = run("m.c", &[("m.c", src)]);
        assert!(!d.has_errors(), "{d:?}");
        assert_eq!(idents(&toks), vec!["b"]);
    }

    #[test]
    fn if_division_by_zero_diagnosed_when_live() {
        let (_, d) = run("m.c", &[("m.c", "#if 1 / 0\nint a;\n#endif")]);
        assert!(d.has_errors());
        assert!(format!("{d:?}").contains("division by zero"), "{d:?}");
    }

    #[test]
    fn if_malformed_condition_diagnosed() {
        for src in [
            "#if 1 +\nint a;\n#endif",
            "#if (1\nint a;\n#endif",
            "#if 1 2\nint a;\n#endif",
            "#if\nint a;\n#endif",
        ] {
            let (_, d) = run("m.c", &[("m.c", src)]);
            assert!(d.has_errors(), "`{src}` must diagnose");
        }
    }

    #[test]
    fn skipped_group_does_not_evaluate_nested_conditions() {
        // Regression (ISSUE 8): conditions inside a skipped group used to
        // be evaluated anyway, so target-specific forms the old evaluator
        // did not support produced spurious errors.
        let src = "#if 0\n#if SOME_TARGET_FLAG(3)\nint a;\n#endif\n#elif 0\n#else\n#endif\nint x;";
        let (toks, d) = run("m.c", &[("m.c", src)]);
        assert!(!d.has_errors(), "{d:?}");
        assert_eq!(idents(&toks), vec!["x"]);
    }

    #[test]
    fn skipped_group_does_not_divide_by_zero() {
        let src = "#if 0\n#if 1 / 0\nint a;\n#endif\n#endif\nint x;";
        let (toks, d) = run("m.c", &[("m.c", src)]);
        assert!(!d.has_errors(), "{d:?}");
        assert_eq!(idents(&toks), vec!["x"]);
    }

    #[test]
    fn taken_branch_suppresses_later_elif_evaluation() {
        // Once a branch is taken, later #elif conditions are dead and must
        // not be evaluated (or diagnosed).
        let src = "#if 1\nint a;\n#elif BOGUS(\nint b;\n#endif";
        let (toks, d) = run("m.c", &[("m.c", src)]);
        assert!(!d.has_errors(), "{d:?}");
        assert_eq!(idents(&toks), vec!["a"]);
    }

    #[test]
    fn nested_elif_chains() {
        let src = "#define MODE 2\n\
                   #if MODE == 1\nint m1;\n\
                   #elif MODE == 2\n\
                   #if defined(SUB)\nint s1;\n#elif MODE > 1\nint s2;\n#else\nint s3;\n#endif\n\
                   #elif MODE == 3\nint m3;\n\
                   #else\nint me;\n#endif";
        let (toks, d) = run("m.c", &[("m.c", src)]);
        assert!(!d.has_errors(), "{d:?}");
        assert_eq!(idents(&toks), vec!["s2"]);
    }

    #[test]
    fn else_after_else_diagnosed() {
        let (_, d) = run("m.c", &[("m.c", "#if 0\n#else\n#else\n#endif")]);
        assert!(d.has_errors());
        let (_, d) = run("m.c", &[("m.c", "#if 0\n#else\n#elif 1\n#endif")]);
        assert!(d.has_errors());
    }

    #[test]
    fn directive_with_trailing_comment_strips_cleanly() {
        // Regression (ISSUE 8): trailing comments on directive lines must
        // not leak into the macro name.
        let src = "#define FOO 1\n#undef FOO /* why */\n#ifdef FOO\nint bad;\n#endif\nint ok;";
        let (toks, d) = run("m.c", &[("m.c", src)]);
        assert!(!d.has_errors(), "{d:?}");
        assert_eq!(idents(&toks), vec!["ok"]);

        let src = "#define FOO 1\n#ifdef FOO // note\nint yes;\n#endif";
        let (toks, d) = run("m.c", &[("m.c", src)]);
        assert!(!d.has_errors(), "{d:?}");
        assert_eq!(idents(&toks), vec!["yes"]);
    }

    #[test]
    fn function_like_macro_rejected_forms_still_diagnose() {
        // The restricted forms stay restricted: variadic + paste.
        let (_, d) = run("m.c", &[("m.c", "#define SQ(x, ...) ((x)*(x))\n")]);
        assert!(d.has_errors());
    }

    #[test]
    fn unterminated_if_reported() {
        let (_, d) = run("m.c", &[("m.c", "#ifdef X\nint a;\n")]);
        assert!(d.has_errors());
    }

    #[test]
    fn error_directive_in_inactive_branch_ignored() {
        let src = "#ifdef NOPE\n#error should not fire\n#endif\nint x;";
        let (toks, d) = run("m.c", &[("m.c", src)]);
        assert!(!d.has_errors());
        assert_eq!(idents(&toks), vec!["x"]);
    }

    #[test]
    fn guard_pattern_include_twice() {
        let h = "#ifndef H_H\n#define H_H 1\nint once;\n#endif";
        let main = "#include \"h.h\"\n#include \"h2.h\"";
        // h2.h includes h.h again; the guard must prevent a duplicate.
        let (toks, d) =
            run("main.c", &[("main.c", main), ("h.h", h), ("h2.h", "#include \"h.h\"")]);
        assert!(!d.has_errors(), "{d:?}");
        assert_eq!(idents(&toks), vec!["once"]);
    }

    #[test]
    fn macros_inactive_branch_not_defined() {
        let src =
            "#ifdef NOPE\n#define HIDDEN 5\n#endif\n#ifdef HIDDEN\nint bad;\n#endif\nint good;";
        let (toks, d) = run("m.c", &[("m.c", src)]);
        assert!(!d.has_errors());
        assert_eq!(idents(&toks), vec!["good"]);
    }

    #[test]
    fn expansion_depth_guard_fires() {
        // 200 chained object macros: deeper than MAX_EXPANSION_DEPTH.
        let mut src = String::new();
        for i in 0..200 {
            src.push_str(&format!("#define D{i} D{}\n", i + 1));
        }
        src.push_str("#define D200 1\nint x = D0;\n");
        let (_, d) = run("m.c", &[("m.c", src.as_str())]);
        assert!(d.has_errors());
        assert!(format!("{d:?}").contains("nested deeper"), "{d:?}");
    }

    #[test]
    fn annotations_survive_preprocessing() {
        let src = "/** SafeFlow Annotation assert(safe(x)) */ int x;";
        let (toks, d) = run("m.c", &[("m.c", src)]);
        assert!(!d.has_errors());
        assert!(matches!(toks[0], TokenKind::Annotation(_)));
    }
}
