//! Lexer for the C subset.
//!
//! Produces a flat token stream. Two non-standard productions:
//!
//! * block comments whose body starts with `SafeFlow Annotation` (after any
//!   number of `*`s) become [`TokenKind::Annotation`] tokens carrying the
//!   annotation body — this is how the paper embeds its annotation language
//!   in C comments (paper §3.1);
//! * lines starting with `#` become [`TokenKind::Directive`] tokens holding
//!   the directive text (with backslash-continuations folded), which the
//!   preprocessor consumes.
//!
//! The lexer is **zero-copy**: identifiers, annotation bodies, plain
//! string literals and plain directives are borrowed as `&str` slices of
//! the source buffer and interned to [`safeflow_util::Symbol`]s — the only
//! per-token copy is the one-time arena copy the first time a distinct
//! string is seen. A transient `String` is built only when the token text
//! cannot be a verbatim slice (escape sequences, folded continuations,
//! comments inside directives). Every slice boundary sits on an ASCII
//! delimiter the scanner just matched, so slicing can never split a
//! multi-byte UTF-8 codepoint.

use crate::diag::Diagnostics;
use crate::span::{FileId, Span};
use crate::token::{Keyword, Punct, Token, TokenKind};
use safeflow_util::hash::hash_str;
use safeflow_util::Symbol;

/// Marker string that distinguishes SafeFlow annotations from ordinary
/// comments (paper §3.1: "annotations are enclosed within C comments which
/// begin with the special string, SafeFlow Annotation").
pub const ANNOTATION_MARKER: &str = "SafeFlow Annotation";

/// Lexes `text` (registered as `file`) into a token vector ending in `Eof`.
///
/// Lexical errors are reported to `diags`; the offending bytes are skipped so
/// lexing always terminates with a complete token stream.
pub fn lex(file: FileId, text: &str, diags: &mut Diagnostics) -> Vec<Token> {
    // C source runs about 3.4 bytes per token (3.38 over the benchmark
    // corpus), so one byte in three rarely grows the vector and wastes
    // little.
    let mut out = Vec::with_capacity(text.len() / 3 + 1);
    lex_into(file, text, diags, &mut out);
    out
}

/// [`lex`] appending to `out`, so a caller that lexes many short texts
/// can reuse one buffer.
pub(crate) fn lex_into(file: FileId, text: &str, diags: &mut Diagnostics, out: &mut Vec<Token>) {
    let mut lexer = Lexer {
        file,
        text,
        bytes: text.as_bytes(),
        pos: 0,
        at_line_start: true,
        diags,
        memo: [None; MEMO_SLOTS],
    };
    loop {
        let tok = lexer.next_token();
        let done = tok.kind == TokenKind::Eof;
        out.push(tok);
        if done {
            break;
        }
    }
}

/// Slots in a lexer's [`Lexer::memo`]; a power of two.
const MEMO_SLOTS: usize = 256;

struct Lexer<'a, 'd> {
    file: FileId,
    /// The source text; token payloads are sliced from here.
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    at_line_start: bool,
    diags: &'d mut Diagnostics,
    /// Texts of this file already interned, so that a repeated identifier
    /// or directive skips the global interner and its lock: a
    /// direct-mapped table indexed by the low bits of the text's stable hash,
    /// where a collision just replaces the slot.
    memo: [Option<(&'a str, Symbol)>; MEMO_SLOTS],
}

impl<'a, 'd> Lexer<'a, 'd> {
    /// Interns `s`, a slice of the source, through the per-file memo.
    fn intern(&mut self, s: &'a str) -> Symbol {
        let slot = &mut self.memo[hash_str(s) as usize & (MEMO_SLOTS - 1)];
        match *slot {
            Some((seen, sym)) if seen == s => sym,
            _ => {
                let sym = Symbol::intern(s);
                *slot = Some((s, sym));
                sym
            }
        }
    }

    fn peek(&self) -> u8 {
        *self.bytes.get(self.pos).unwrap_or(&0)
    }

    fn peek2(&self) -> u8 {
        *self.bytes.get(self.pos + 1).unwrap_or(&0)
    }

    fn peek3(&self) -> u8 {
        *self.bytes.get(self.pos + 2).unwrap_or(&0)
    }

    fn bump(&mut self) -> u8 {
        let b = self.peek();
        self.pos += 1;
        if b == b'\n' {
            self.at_line_start = true;
        } else if !b.is_ascii_whitespace() {
            self.at_line_start = false;
        }
        b
    }

    fn span_from(&self, lo: usize) -> Span {
        Span::new(self.file, lo as u32, self.pos as u32)
    }

    fn next_token(&mut self) -> Token {
        loop {
            // Skip whitespace.
            while self.peek().is_ascii_whitespace() {
                self.bump();
            }
            let lo = self.pos;
            let b = self.peek();
            if b == 0 && self.pos >= self.bytes.len() {
                return Token::new(TokenKind::Eof, self.span_from(lo));
            }
            // Preprocessor directive: '#' at logical line start.
            if b == b'#' && self.at_line_start {
                return self.lex_directive();
            }
            // Comments.
            if b == b'/' && self.peek2() == b'/' {
                // Up to the newline; the `//` already ended the line start.
                let rest = &self.bytes[self.pos..];
                self.pos += rest.iter().position(|&c| c == b'\n').unwrap_or(rest.len());
                self.at_line_start = false;
                continue;
            }
            if b == b'/' && self.peek2() == b'*' {
                if let Some(tok) = self.lex_block_comment() {
                    return tok;
                }
                continue;
            }
            if b.is_ascii_alphabetic() || b == b'_' {
                return self.lex_ident();
            }
            if b.is_ascii_digit() || (b == b'.' && self.peek2().is_ascii_digit()) {
                return self.lex_number();
            }
            if b == b'\'' {
                return self.lex_char();
            }
            if b == b'"' {
                return self.lex_string();
            }
            return self.lex_punct();
        }
    }

    /// Consumes a `#...` line (with `\` continuations) into a Directive token.
    ///
    /// The common case (no continuation, no embedded comment) is a verbatim
    /// slice of the line; a transient buffer is built only when folding is
    /// actually needed.
    fn lex_directive(&mut self) -> Token {
        let lo = self.pos;
        self.bump(); // '#'
        let body_lo = self.pos;
        // `folded` is Some as soon as the payload diverges from the raw
        // slice; until then the slice `body_lo..body_end` is authoritative.
        let mut folded: Option<String> = None;
        // Comment stripping must not fire inside string/char literals, or
        // `#define PATH "http://x"` truncates at the `//`.
        let mut quote: Option<u8> = None;
        let body_end;
        loop {
            let b = self.peek();
            if (b == 0 && self.pos >= self.bytes.len()) || b == b'\n' {
                body_end = self.pos;
                break;
            }
            if b == b'\\' && self.peek2() == b'\n' {
                let buf = folded.get_or_insert_with(|| self.text[body_lo..self.pos].to_string());
                self.bump();
                self.bump();
                buf.push(' ');
                continue;
            }
            if let Some(q) = quote {
                // Inside a literal: honor escapes, watch for the close quote.
                if b == b'\\' && self.pos + 1 < self.bytes.len() && self.peek2() != b'\n' {
                    let c = self.bump();
                    if let Some(buf) = folded.as_mut() {
                        buf.push(c as char);
                    }
                } else if b == q {
                    quote = None;
                }
                let c = self.bump();
                if let Some(buf) = folded.as_mut() {
                    buf.push(c as char);
                }
                continue;
            }
            if b == b'"' || b == b'\'' {
                quote = Some(b);
                let c = self.bump();
                if let Some(buf) = folded.as_mut() {
                    buf.push(c as char);
                }
                continue;
            }
            // Strip comments inside directives.
            if b == b'/' && self.peek2() == b'/' {
                body_end = self.pos;
                while self.peek() != b'\n' && self.pos < self.bytes.len() {
                    self.bump();
                }
                break;
            }
            if b == b'/' && self.peek2() == b'*' {
                let buf = folded.get_or_insert_with(|| self.text[body_lo..self.pos].to_string());
                self.bump();
                self.bump();
                while self.pos < self.bytes.len() && !(self.peek() == b'*' && self.peek2() == b'/')
                {
                    self.bump();
                }
                self.bump();
                self.bump();
                buf.push(' ');
                continue;
            }
            let c = self.bump();
            if let Some(buf) = folded.as_mut() {
                buf.push(c as char);
            }
        }
        let payload = match &folded {
            Some(buf) => Symbol::intern(buf.trim()),
            None => self.intern(self.text[body_lo..body_end].trim()),
        };
        Token::new(TokenKind::Directive(payload), self.span_from(lo))
    }

    /// Consumes `/* ... */`. Returns a token iff it is a SafeFlow annotation.
    fn lex_block_comment(&mut self) -> Option<Token> {
        let lo = self.pos;
        self.bump(); // '/'
        self.bump(); // '*'
        let body_start = self.pos;
        let rest = &self.bytes[body_start..];
        let closed = match rest.windows(2).position(|w| w == b"*/") {
            Some(i) => {
                self.pos += i;
                true
            }
            // Nothing follows an unterminated comment, so the line-start
            // state it leaves is never read.
            None => {
                self.pos = self.bytes.len();
                false
            }
        };
        let body_end = self.pos;
        if closed {
            self.bump();
            self.bump();
        } else {
            self.diags.error(self.span_from(lo), "unterminated block comment");
        }
        let body = &self.text[body_start..body_end.min(self.text.len())];
        // Annotation comments may open with extra '*'s: `/***SafeFlow Annotation`.
        let trimmed = body.trim_start_matches('*').trim_start();
        if let Some(rest) = trimmed.strip_prefix(ANNOTATION_MARKER) {
            // The paper's examples close annotations with `/***/`; when the
            // lexer sees `... /***/` the trailing `/*` of that close belongs
            // to the body. Strip any trailing '/', '*' noise.
            let payload = rest.trim().trim_end_matches(['*', '/']).trim();
            // The token's span covers the payload *text*, not the whole
            // comment, so diagnostics point at the annotation itself. The
            // payload is a verbatim (trim-only) substring of the file, so
            // its byte offsets are recoverable by pointer arithmetic —
            // which also keeps CRLF/tab leading trivia out of the span.
            let span = if payload.is_empty() {
                self.span_from(lo)
            } else {
                let plo = payload.as_ptr() as usize - self.bytes.as_ptr() as usize;
                Span::new(self.file, plo as u32, (plo + payload.len()) as u32)
            };
            return Some(Token::new(TokenKind::Annotation(Symbol::intern(payload)), span));
        }
        None
    }

    fn lex_ident(&mut self) -> Token {
        let lo = self.pos;
        let rest = &self.bytes[lo..];
        self.pos += rest
            .iter()
            .position(|&c| !(c.is_ascii_alphanumeric() || c == b'_'))
            .unwrap_or(rest.len());
        // The first byte is a letter or `_`, so the line has started.
        self.at_line_start = false;
        // The scanned bytes are all ASCII alphanumerics/underscores, so the
        // slice boundaries are char boundaries: borrow straight from the
        // source buffer, no allocation.
        let s = &self.text[lo..self.pos];
        let kind = match Keyword::from_str(s) {
            Some(k) => TokenKind::Keyword(k),
            None => TokenKind::Ident(self.intern(s)),
        };
        Token::new(kind, self.span_from(lo))
    }

    fn lex_number(&mut self) -> Token {
        let lo = self.pos;
        let mut is_float = false;
        if self.peek() == b'0' && (self.peek2() | 0x20) == b'x' {
            self.bump();
            self.bump();
            let digits_lo = self.pos;
            while self.peek().is_ascii_hexdigit() {
                self.bump();
            }
            let digits = &self.text[digits_lo..self.pos];
            let value = i64::from_str_radix(digits, 16).unwrap_or_else(|_| {
                self.diags.error(self.span_from(lo), "invalid hexadecimal constant");
                0
            });
            self.skip_int_suffix();
            return Token::new(TokenKind::IntLit(value), self.span_from(lo));
        }
        while self.peek().is_ascii_digit() {
            self.bump();
        }
        if self.peek() == b'.' && self.peek2() != b'.' {
            is_float = true;
            self.bump();
            while self.peek().is_ascii_digit() {
                self.bump();
            }
        }
        if (self.peek() | 0x20) == b'e'
            && (self.peek2().is_ascii_digit()
                || ((self.peek2() == b'+' || self.peek2() == b'-')
                    && self.peek3().is_ascii_digit()))
        {
            is_float = true;
            self.bump();
            if self.peek() == b'+' || self.peek() == b'-' {
                self.bump();
            }
            while self.peek().is_ascii_digit() {
                self.bump();
            }
        }
        let text = &self.text[lo..self.pos];
        if is_float || (self.peek() | 0x20) == b'f' && text.contains('.') {
            let value: f64 = text.parse().unwrap_or_else(|_| {
                self.diags.error(self.span_from(lo), "invalid floating-point constant");
                0.0
            });
            if (self.peek() | 0x20) == b'f' || (self.peek() | 0x20) == b'l' {
                self.bump();
            }
            return Token::new(TokenKind::FloatLit(value), self.span_from(lo));
        }
        // Octal constants (leading 0) are parsed as octal per C.
        let value = if text.len() > 1 && text.starts_with('0') {
            i64::from_str_radix(&text[1..], 8).unwrap_or_else(|_| {
                self.diags.error(self.span_from(lo), "invalid octal constant");
                0
            })
        } else {
            text.parse().unwrap_or_else(|_| {
                self.diags.error(self.span_from(lo), "integer constant out of range");
                0
            })
        };
        self.skip_int_suffix();
        Token::new(TokenKind::IntLit(value), self.span_from(lo))
    }

    fn skip_int_suffix(&mut self) {
        while matches!(self.peek() | 0x20, b'u' | b'l') {
            self.bump();
        }
    }

    fn lex_escape(&mut self) -> i64 {
        // Called after consuming the backslash.
        let b = self.bump();
        match b {
            b'n' => b'\n' as i64,
            b't' => b'\t' as i64,
            b'r' => b'\r' as i64,
            b'0' => 0,
            b'\\' => b'\\' as i64,
            b'\'' => b'\'' as i64,
            b'"' => b'"' as i64,
            b'a' => 7,
            b'b' => 8,
            b'f' => 12,
            b'v' => 11,
            b'x' => {
                // Wrapping: `"\xfff...f"` with enough digits would overflow
                // an i64 — escapes truncate like C chars do, they don't
                // abort the lexer.
                let mut v: i64 = 0;
                while self.peek().is_ascii_hexdigit() {
                    let d = (self.bump() as char).to_digit(16).unwrap_or(0) as i64;
                    v = v.wrapping_mul(16).wrapping_add(d);
                }
                v
            }
            other => other as i64,
        }
    }

    fn lex_char(&mut self) -> Token {
        let lo = self.pos;
        self.bump(); // '\''
        let value = if self.peek() == b'\\' {
            self.bump();
            self.lex_escape()
        } else {
            self.bump() as i64
        };
        if self.peek() == b'\'' {
            self.bump();
        } else {
            self.diags.error(self.span_from(lo), "unterminated character constant");
        }
        Token::new(TokenKind::CharLit(value), self.span_from(lo))
    }

    fn lex_string(&mut self) -> Token {
        let lo = self.pos;
        self.bump(); // '"'
        let content_lo = self.pos;
        // Fast path: an all-ASCII literal with no escapes is a verbatim
        // slice of the source. Escapes need decoding, and non-ASCII bytes
        // keep the historical byte-as-char decoding, so either drops to the
        // buffered slow path below.
        loop {
            let b = self.peek();
            if b == 0 && self.pos >= self.bytes.len() {
                self.diags.error(self.span_from(lo), "unterminated string literal");
                let s = &self.text[content_lo..self.pos];
                return Token::new(TokenKind::StrLit(Symbol::intern(s)), self.span_from(lo));
            }
            if b == b'"' {
                let s = &self.text[content_lo..self.pos];
                self.bump();
                return Token::new(TokenKind::StrLit(Symbol::intern(s)), self.span_from(lo));
            }
            if b == b'\\' || !b.is_ascii() {
                break;
            }
            self.bump();
        }
        // Slow path: everything scanned so far was clean ASCII; copy it and
        // continue decoding byte by byte.
        let mut s = self.text[content_lo..self.pos].to_string();
        loop {
            let b = self.peek();
            if b == 0 && self.pos >= self.bytes.len() {
                self.diags.error(self.span_from(lo), "unterminated string literal");
                break;
            }
            if b == b'"' {
                self.bump();
                break;
            }
            if b == b'\\' {
                self.bump();
                let v = self.lex_escape();
                s.push(char::from_u32(v as u32).unwrap_or('\u{FFFD}'));
            } else {
                s.push(self.bump() as char);
            }
        }
        Token::new(TokenKind::StrLit(Symbol::intern(&s)), self.span_from(lo))
    }

    fn lex_punct(&mut self) -> Token {
        use Punct::*;
        let lo = self.pos;
        let a = self.bump();
        let b = self.peek();
        let c = self.peek2();
        let take2 = |p: Punct, this: &mut Self| {
            this.bump();
            Some(p)
        };
        let p: Option<Punct> = match (a, b, c) {
            (b'.', b'.', b'.') => {
                self.bump();
                self.bump();
                Some(Ellipsis)
            }
            (b'<', b'<', b'=') => {
                self.bump();
                self.bump();
                Some(ShlAssign)
            }
            (b'>', b'>', b'=') => {
                self.bump();
                self.bump();
                Some(ShrAssign)
            }
            (b'-', b'>', _) => take2(Arrow, self),
            (b'+', b'+', _) => take2(PlusPlus, self),
            (b'-', b'-', _) => take2(MinusMinus, self),
            (b'<', b'<', _) => take2(Shl, self),
            (b'>', b'>', _) => take2(Shr, self),
            (b'<', b'=', _) => take2(Le, self),
            (b'>', b'=', _) => take2(Ge, self),
            (b'=', b'=', _) => take2(EqEq, self),
            (b'!', b'=', _) => take2(Ne, self),
            (b'&', b'&', _) => take2(AmpAmp, self),
            (b'|', b'|', _) => take2(PipePipe, self),
            (b'+', b'=', _) => take2(PlusAssign, self),
            (b'-', b'=', _) => take2(MinusAssign, self),
            (b'*', b'=', _) => take2(StarAssign, self),
            (b'/', b'=', _) => take2(SlashAssign, self),
            (b'%', b'=', _) => take2(PercentAssign, self),
            (b'&', b'=', _) => take2(AmpAssign, self),
            (b'^', b'=', _) => take2(CaretAssign, self),
            (b'|', b'=', _) => take2(PipeAssign, self),
            (b'(', ..) => Some(LParen),
            (b')', ..) => Some(RParen),
            (b'{', ..) => Some(LBrace),
            (b'}', ..) => Some(RBrace),
            (b'[', ..) => Some(LBracket),
            (b']', ..) => Some(RBracket),
            (b';', ..) => Some(Semi),
            (b',', ..) => Some(Comma),
            (b'.', ..) => Some(Dot),
            (b'&', ..) => Some(Amp),
            (b'*', ..) => Some(Star),
            (b'+', ..) => Some(Plus),
            (b'-', ..) => Some(Minus),
            (b'~', ..) => Some(Tilde),
            (b'!', ..) => Some(Bang),
            (b'/', ..) => Some(Slash),
            (b'%', ..) => Some(Percent),
            (b'<', ..) => Some(Lt),
            (b'>', ..) => Some(Gt),
            (b'^', ..) => Some(Caret),
            (b'|', ..) => Some(Pipe),
            (b'?', ..) => Some(Question),
            (b':', ..) => Some(Colon),
            (b'=', ..) => Some(Assign),
            _ => None,
        };
        match p {
            Some(p) => Token::new(TokenKind::Punct(p), self.span_from(lo)),
            None => {
                self.diags
                    .error(self.span_from(lo), format!("unexpected character `{}`", a as char));
                // Recover by producing a semicolon-ish token? No: just retry.
                self.next_token()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::FileId;

    fn lex_ok(src: &str) -> Vec<TokenKind> {
        let mut diags = Diagnostics::new();
        let toks = lex(FileId(0), src, &mut diags);
        assert!(!diags.has_errors(), "unexpected lex errors: {diags:?}");
        toks.into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lex_simple_declaration() {
        let toks = lex_ok("int x = 42;");
        assert_eq!(
            toks,
            vec![
                TokenKind::Keyword(Keyword::Int),
                TokenKind::Ident("x".into()),
                TokenKind::Punct(Punct::Assign),
                TokenKind::IntLit(42),
                TokenKind::Punct(Punct::Semi),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn lex_operators() {
        let toks = lex_ok("a->b ++ -- <<= >>= ... && ||");
        let puncts: Vec<_> = toks
            .iter()
            .filter_map(|t| match t {
                TokenKind::Punct(p) => Some(*p),
                _ => None,
            })
            .collect();
        assert_eq!(
            puncts,
            vec![
                Punct::Arrow,
                Punct::PlusPlus,
                Punct::MinusMinus,
                Punct::ShlAssign,
                Punct::ShrAssign,
                Punct::Ellipsis,
                Punct::AmpAmp,
                Punct::PipePipe
            ]
        );
    }

    #[test]
    fn lex_numbers() {
        let toks = lex_ok("0 10 0x1F 017 3.5 1e3 2.5e-2 10u 5L 1.0f");
        let mut ints = Vec::new();
        let mut floats = Vec::new();
        for t in toks {
            match t {
                TokenKind::IntLit(v) => ints.push(v),
                TokenKind::FloatLit(v) => floats.push(v),
                _ => {}
            }
        }
        assert_eq!(ints, vec![0, 10, 31, 15, 10, 5]);
        assert_eq!(floats, vec![3.5, 1000.0, 0.025, 1.0]);
    }

    #[test]
    fn lex_char_and_string() {
        let toks = lex_ok(r#"'a' '\n' '\x41' "hi\n" "" "#);
        assert_eq!(toks[0], TokenKind::CharLit('a' as i64));
        assert_eq!(toks[1], TokenKind::CharLit('\n' as i64));
        assert_eq!(toks[2], TokenKind::CharLit(0x41));
        assert_eq!(toks[3], TokenKind::StrLit("hi\n".into()));
        assert_eq!(toks[4], TokenKind::StrLit("".into()));
    }

    #[test]
    fn comments_are_skipped() {
        let toks = lex_ok("int /* ordinary comment */ x; // line\nint y;");
        let idents: Vec<_> = toks
            .iter()
            .filter_map(|t| match t {
                TokenKind::Ident(s) => Some(*s),
                _ => None,
            })
            .collect();
        assert_eq!(idents, vec!["x", "y"]);
    }

    #[test]
    fn annotation_comment_paper_syntax() {
        // Exactly the style of Figure 2 in the paper.
        let src =
            "/***SafeFlow Annotation\n    assume(core(noncoreCtrl, 0, sizeof(SHMData))) /***/";
        let toks = lex_ok(src);
        match &toks[0] {
            TokenKind::Annotation(body) => {
                assert_eq!(body, "assume(core(noncoreCtrl, 0, sizeof(SHMData)))");
            }
            other => panic!("expected annotation, got {other:?}"),
        }
    }

    #[test]
    fn annotation_comment_plain_close() {
        let src = "/** SafeFlow Annotation assert(safe(output)) */ int x;";
        let toks = lex_ok(src);
        assert_eq!(toks[0], TokenKind::Annotation("assert(safe(output))".into()));
    }

    #[test]
    fn annotation_span_covers_payload_not_comment() {
        let src = "int x; /** SafeFlow Annotation assert(safe(x)) */";
        let mut diags = Diagnostics::new();
        let toks = lex(FileId(0), src, &mut diags);
        let tok = toks.iter().find(|t| matches!(t.kind, TokenKind::Annotation(_))).unwrap();
        assert_eq!(&src[tok.span.lo as usize..tok.span.hi as usize], "assert(safe(x))");
    }

    #[test]
    fn annotation_span_is_exact_on_crlf_and_tab_sources() {
        // CRLF line endings and tab indentation inside the comment: the
        // token span must still cover exactly the payload text, so
        // downstream `line_col` (character columns) points at the
        // annotation, not at comment trivia.
        let src = "\tint x;\r\n\t/** SafeFlow Annotation\r\n\t\tassert(safe(x))\r\n\t*/\r\n";
        let mut diags = Diagnostics::new();
        let toks = lex(FileId(0), src, &mut diags);
        assert!(!diags.has_errors(), "{diags:?}");
        let tok = toks.iter().find(|t| matches!(t.kind, TokenKind::Annotation(_))).unwrap();
        assert_eq!(&src[tok.span.lo as usize..tok.span.hi as usize], "assert(safe(x))");
    }

    #[test]
    fn empty_annotation_keeps_comment_span() {
        let src = "/** SafeFlow Annotation */ int x;";
        let mut diags = Diagnostics::new();
        let toks = lex(FileId(0), src, &mut diags);
        let tok = &toks[0];
        assert_eq!(tok.kind, TokenKind::Annotation("".into()));
        assert_eq!((tok.span.lo, tok.span.hi), (0, 26));
    }

    #[test]
    fn directives_lexed_as_lines() {
        let toks = lex_ok("#include \"shm.h\"\n#define N 10\nint x;");
        assert_eq!(toks[0], TokenKind::Directive("include \"shm.h\"".into()));
        assert_eq!(toks[1], TokenKind::Directive("define N 10".into()));
    }

    #[test]
    fn directive_continuation_folded() {
        let toks = lex_ok("#define BIG \\\n 42\nint x;");
        assert_eq!(toks[0], TokenKind::Directive("define BIG   42".into()));
    }

    #[test]
    fn directive_trailing_comments_stripped() {
        let toks = lex_ok("#undef FOO /* why */\n#ifdef FOO // note\n#endif\nint x;");
        assert_eq!(toks[0], TokenKind::Directive("undef FOO".into()));
        assert_eq!(toks[1], TokenKind::Directive("ifdef FOO".into()));
        assert_eq!(toks[2], TokenKind::Directive("endif".into()));
    }

    #[test]
    fn directive_comment_stripping_is_quote_aware() {
        // `//` inside a string literal is not a comment...
        let toks = lex_ok("#define PATH \"http://x\"\nint x;");
        assert_eq!(toks[0], TokenKind::Directive("define PATH \"http://x\"".into()));
        // ...nor is `/*` inside a char constant; a real trailing comment
        // after the literal still strips, and escaped quotes don't close
        // the literal early.
        let toks = lex_ok("#define S \"a /* b\" // c\n#define Q \"x\\\"y//z\"\nint x;");
        assert_eq!(toks[0], TokenKind::Directive("define S \"a /* b\"".into()));
        assert_eq!(toks[1], TokenKind::Directive("define Q \"x\\\"y//z\"".into()));
    }

    #[test]
    fn hash_mid_line_is_error_not_directive() {
        let mut diags = Diagnostics::new();
        let toks = lex(FileId(0), "int x # y;", &mut diags);
        assert!(diags.has_errors());
        // Lexer recovers and still reaches EOF.
        assert_eq!(toks.last().unwrap().kind, TokenKind::Eof);
    }

    #[test]
    fn unterminated_comment_reported() {
        let mut diags = Diagnostics::new();
        let _ = lex(FileId(0), "/* never closed", &mut diags);
        assert!(diags.has_errors());
    }

    #[test]
    fn spans_are_accurate() {
        let mut diags = Diagnostics::new();
        let toks = lex(FileId(0), "int foo;", &mut diags);
        assert_eq!(toks[1].span.lo, 4);
        assert_eq!(toks[1].span.hi, 7);
    }
}
