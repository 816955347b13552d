//! Diagnostics: errors and warnings produced by the frontend and later
//! analysis phases, with source-anchored rendering.

use crate::source::SourceMap;
use crate::span::Span;
use std::fmt;

/// How serious a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational note attached to another diagnostic.
    Note,
    /// Does not stop compilation/analysis.
    Warning,
    /// Stops the pipeline after the current phase.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Note => write!(f, "note"),
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// A single diagnostic message anchored at a span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Error/warning/note.
    pub severity: Severity,
    /// Primary location.
    pub span: Span,
    /// Human-readable message.
    pub message: String,
    /// Secondary locations with explanatory text.
    pub notes: Vec<(Span, String)>,
}

impl Diagnostic {
    /// Creates an error diagnostic.
    pub fn error(span: Span, message: impl Into<String>) -> Self {
        Diagnostic { severity: Severity::Error, span, message: message.into(), notes: Vec::new() }
    }

    /// Creates a warning diagnostic.
    pub fn warning(span: Span, message: impl Into<String>) -> Self {
        Diagnostic { severity: Severity::Warning, span, message: message.into(), notes: Vec::new() }
    }

    /// Appends a secondary note.
    pub fn with_note(mut self, span: Span, message: impl Into<String>) -> Self {
        self.notes.push((span, message.into()));
        self
    }

    /// Renders the diagnostic against `sources` as a multi-line string.
    pub fn render(&self, sources: &SourceMap) -> String {
        let mut out =
            format!("{}: {} [{}]", self.severity, self.message, sources.describe(self.span));
        if !self.span.is_dummy() {
            let file = sources.file(self.span.file);
            let (line, col) = file.line_col(self.span.lo);
            let text = file.line_text(line);
            out.push_str(&format!("\n    {line:>4} | {text}"));
            // The pad mirrors the line prefix character-for-character, with
            // tabs kept as tabs, so the caret lines up however wide the
            // terminal renders a tab — and `col` is a *character* column
            // (see `line_col`), so the cap must count chars, not bytes.
            let pad: String = text
                .chars()
                .take(col as usize - 1)
                .map(|c| if c == '\t' { '\t' } else { ' ' })
                .collect();
            let line_chars = text.chars().count();
            let caret_len = (self.span.len().max(1) as usize)
                .min(line_chars.saturating_sub(col as usize - 1).max(1));
            out.push_str(&format!("\n         | {pad}{}", "^".repeat(caret_len)));
        }
        for (span, note) in &self.notes {
            out.push_str(&format!("\n    note: {} [{}]", note, sources.describe(*span)));
        }
        out
    }
}

/// Collects diagnostics across a compilation/analysis run.
#[derive(Debug, Default)]
pub struct Diagnostics {
    items: Vec<Diagnostic>,
}

impl Diagnostics {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Diagnostics::default()
    }

    /// Records a diagnostic.
    pub fn push(&mut self, diag: Diagnostic) {
        self.items.push(diag);
    }

    /// Records an error at `span`.
    pub fn error(&mut self, span: Span, message: impl Into<String>) {
        self.push(Diagnostic::error(span, message));
    }

    /// Records a warning at `span`.
    pub fn warning(&mut self, span: Span, message: impl Into<String>) {
        self.push(Diagnostic::warning(span, message));
    }

    /// All recorded diagnostics in emission order.
    pub fn iter(&self) -> impl Iterator<Item = &Diagnostic> {
        self.items.iter()
    }

    /// Moves all diagnostics out of `other` into this sink, preserving
    /// `other`'s emission order. Used to splice per-file lexer diagnostics
    /// (collected off-thread under parallel parsing) into the main sink at
    /// the point the file is first included.
    pub fn append(&mut self, other: Diagnostics) {
        self.items.extend(other.items);
    }

    /// Whether any error-severity diagnostic was recorded.
    pub fn has_errors(&self) -> bool {
        self.items.iter().any(|d| d.severity == Severity::Error)
    }

    /// Number of error-severity diagnostics.
    pub fn error_count(&self) -> usize {
        self.items.iter().filter(|d| d.severity == Severity::Error).count()
    }

    /// Total number of diagnostics.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether no diagnostics were recorded.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Renders all diagnostics against `sources`, one block per item.
    pub fn render_all(&self, sources: &SourceMap) -> String {
        self.items.iter().map(|d| d.render(sources)).collect::<Vec<_>>().join("\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::FileId;

    #[test]
    fn error_detection() {
        let mut d = Diagnostics::new();
        assert!(!d.has_errors());
        d.warning(Span::dummy(), "w");
        assert!(!d.has_errors());
        d.error(Span::dummy(), "e");
        assert!(d.has_errors());
        assert_eq!(d.error_count(), 1);
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn render_includes_caret() {
        let mut sm = SourceMap::new();
        let f = sm.add_file("t.c", "int bad = ;\n");
        let diag = Diagnostic::error(Span::new(f, 10, 11), "expected expression");
        let rendered = diag.render(&sm);
        assert!(rendered.contains("error: expected expression"));
        assert!(rendered.contains("t.c:1:11"));
        assert!(rendered.contains('^'));
    }

    #[test]
    fn render_includes_notes() {
        let mut sm = SourceMap::new();
        let f = sm.add_file("t.c", "x\ny\n");
        let diag = Diagnostic::error(Span::new(f, 0, 1), "main")
            .with_note(Span::new(f, 2, 3), "secondary");
        let rendered = diag.render(&sm);
        assert!(rendered.contains("note: secondary"));
    }

    #[test]
    fn caret_pad_preserves_tabs_and_counts_chars() {
        let mut sm = SourceMap::new();
        // "\tµ x = 1;" — a tab, a 2-byte char, then `x` at byte 4 / char
        // column 4. The pad must replay the tab (so the caret stays under
        // `x` at any tab width) and count the 2-byte `µ` as one column.
        let f = sm.add_file("t.c", "\t\u{b5} x = 1;\n");
        let diag = Diagnostic::error(Span::new(f, 4, 5), "msg");
        let rendered = diag.render(&sm);
        let caret_line = rendered.lines().last().unwrap();
        assert!(caret_line.ends_with("| \t  ^"), "got {caret_line:?}");
    }

    #[test]
    fn caret_on_crlf_line_is_capped_to_visible_text() {
        let mut sm = SourceMap::new();
        let f = sm.add_file("t.c", "int bad\r\nint y;\r\n");
        // Span runs to the end of line 1 (including the `\r`): the caret
        // must not extend past the visible text.
        let diag = Diagnostic::error(Span::new(f, 4, 8), "msg");
        let rendered = diag.render(&sm);
        let caret_line = rendered.lines().last().unwrap();
        assert!(caret_line.ends_with("|     ^^^"), "got {caret_line:?}");
    }

    #[test]
    fn dummy_span_renders_without_panic() {
        let sm = SourceMap::new();
        let diag = Diagnostic::warning(Span::dummy(), "hmm");
        assert!(diag.render(&sm).contains("<unknown>"));
        let _ = FileId(3);
    }
}
