//! Source file management: registering files and resolving spans to
//! human-readable line/column positions.

use crate::span::{FileId, Span};
use std::collections::HashSet;
use std::sync::{Arc, OnceLock};

/// A single registered source file.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Display name (path or synthetic name like `<fig2.c>`).
    pub name: Arc<str>,
    /// Full file contents.
    pub text: Arc<str>,
    /// Byte offsets at which each line starts (always contains 0), built
    /// the first time a position in the file is resolved.
    line_starts: OnceLock<Vec<u32>>,
}

impl SourceFile {
    fn new(name: Arc<str>, text: Arc<str>) -> Self {
        SourceFile { name, text, line_starts: OnceLock::new() }
    }

    fn line_starts(&self) -> &[u32] {
        self.line_starts.get_or_init(|| {
            let newlines = self.text.bytes().filter(|&b| b == b'\n').count();
            let mut starts = Vec::with_capacity(1 + newlines);
            starts.push(0);
            for (i, b) in self.text.bytes().enumerate() {
                if b == b'\n' {
                    starts.push(i as u32 + 1);
                }
            }
            starts
        })
    }

    /// 1-based line number containing byte offset `pos`.
    pub fn line_of(&self, pos: u32) -> u32 {
        match self.line_starts().binary_search(&pos) {
            Ok(i) => i as u32 + 1,
            Err(i) => i as u32,
        }
    }

    /// 1-based (line, column) of byte offset `pos`.
    ///
    /// The column counts *characters* from the line start, so positions on
    /// lines containing multi-byte UTF-8 (e.g. `µ`/`°` in control-code
    /// comments) render correctly in `file:line:col` descriptions.
    pub fn line_col(&self, pos: u32) -> (u32, u32) {
        let line = self.line_of(pos);
        let start = self.line_starts()[(line - 1) as usize];
        let col = match self.text.get(start as usize..pos as usize) {
            Some(prefix) => prefix.chars().count() as u32,
            // `pos` is past the end or inside a multi-byte sequence:
            // fall back to the byte distance rather than panic.
            None => pos.saturating_sub(start),
        };
        (line, col + 1)
    }

    /// The text of 1-based line `line`, without the trailing newline.
    pub fn line_text(&self, line: u32) -> &str {
        let i = (line - 1) as usize;
        let starts = self.line_starts();
        let lo = starts[i] as usize;
        let hi = starts.get(i + 1).map(|&h| h as usize).unwrap_or(self.text.len());
        self.text[lo..hi].trim_end_matches(['\n', '\r'])
    }

    /// Number of lines in the file.
    pub fn line_count(&self) -> u32 {
        self.line_starts().len() as u32
    }
}

/// Registry of all source files participating in a parse.
///
/// # Examples
///
/// ```
/// use safeflow_syntax::source::SourceMap;
///
/// let mut sm = SourceMap::new();
/// let id = sm.add_file("demo.c", "int x;\nint y;\n");
/// let file = sm.file(id);
/// assert_eq!(file.line_col(7), (2, 1));
/// assert_eq!(file.line_text(1), "int x;");
/// ```
#[derive(Debug, Default)]
pub struct SourceMap {
    files: Vec<SourceFile>,
    /// The names and texts of synthetic files, one copy of each.
    shared: HashSet<Arc<str>>,
}

impl SourceMap {
    /// Creates an empty source map.
    pub fn new() -> Self {
        SourceMap::default()
    }

    /// Registers a file and returns its id.
    pub fn add_file(&mut self, name: &str, text: &str) -> FileId {
        self.push(SourceFile::new(name.into(), text.into()))
    }

    /// Registers a synthetic file (a macro body, an `#if` condition or an
    /// annotation, lexed on its own) and returns its id. A name or text
    /// registered before is shared rather than copied, so a repeated one
    /// costs its file's slot and nothing more.
    pub fn add_synthetic(&mut self, name: &str, text: &str) -> FileId {
        let (name, text) = (self.share(name), self.share(text));
        self.push(SourceFile::new(name, text))
    }

    /// The shared copy of `s`, made on first use.
    fn share(&mut self, s: &str) -> Arc<str> {
        if let Some(known) = self.shared.get(s) {
            return known.clone();
        }
        let s: Arc<str> = s.into();
        self.shared.insert(s.clone());
        s
    }

    fn push(&mut self, file: SourceFile) -> FileId {
        let id = FileId(self.files.len() as u32);
        self.files.push(file);
        id
    }

    /// The file registered under `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this map.
    pub fn file(&self, id: FileId) -> &SourceFile {
        &self.files[id.0 as usize]
    }

    /// Looks up a file by display name.
    pub fn file_by_name(&self, name: &str) -> Option<(FileId, &SourceFile)> {
        self.files
            .iter()
            .enumerate()
            .find(|(_, f)| *f.name == *name)
            .map(|(i, f)| (FileId(i as u32), f))
    }

    /// Number of registered files.
    pub fn len(&self) -> usize {
        self.files.len()
    }

    /// Whether no file has been registered.
    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }

    /// Renders `span` as `name:line:col`.
    pub fn describe(&self, span: Span) -> String {
        if span.is_dummy() {
            return "<unknown>".to_string();
        }
        let f = self.file(span.file);
        let (line, col) = f.line_col(span.lo);
        format!("{}:{}:{}", f.name, line, col)
    }

    /// The source text covered by `span` (empty for dummy spans).
    pub fn snippet(&self, span: Span) -> &str {
        if span.is_dummy() {
            return "";
        }
        let f = self.file(span.file);
        &f.text[span.lo as usize..span.hi as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_lookup() {
        let f = SourceFile::new("t".into(), "ab\ncd\nef".into());
        assert_eq!(f.line_col(0), (1, 1));
        assert_eq!(f.line_col(1), (1, 2));
        assert_eq!(f.line_col(3), (2, 1));
        assert_eq!(f.line_col(6), (3, 1));
        assert_eq!(f.line_count(), 3);
        assert_eq!(f.line_text(2), "cd");
    }

    #[test]
    fn line_lookup_at_newline() {
        let f = SourceFile::new("t".into(), "ab\ncd\n".into());
        // Offset 2 is the '\n' itself: still line 1.
        assert_eq!(f.line_col(2), (1, 3));
    }

    #[test]
    fn line_col_counts_chars_not_bytes() {
        // `µ` is 2 bytes in UTF-8: byte offset 6 (the `s`) is the 6th
        // character on the line, not the 7th.
        let f = SourceFile::new("t".into(), "int µs; /* °C */\nint y;\n".into());
        assert_eq!(f.line_col(6), (1, 6));
        // Second line is unaffected by multi-byte text on the first.
        let second = f.text.find("int y").unwrap() as u32;
        assert_eq!(f.line_col(second), (2, 1));
    }

    #[test]
    fn describe_column_is_character_based() {
        let mut sm = SourceMap::new();
        // "µ° " is 5 bytes but 3 characters; `x` starts at byte 5, char 4.
        let id = sm.add_file("u.c", "µ° x = 1;\n");
        let span = Span::new(id, 5, 6);
        assert_eq!(sm.describe(span), "u.c:1:4");
        assert_eq!(sm.snippet(span), "x");
    }

    #[test]
    fn describe_and_snippet() {
        let mut sm = SourceMap::new();
        let id = sm.add_file("x.c", "int main() {}\n");
        let span = Span::new(id, 4, 8);
        assert_eq!(sm.describe(span), "x.c:1:5");
        assert_eq!(sm.snippet(span), "main");
    }

    #[test]
    fn file_by_name_finds_file() {
        let mut sm = SourceMap::new();
        sm.add_file("a.c", "");
        let id = sm.add_file("b.c", "x");
        let (found, f) = sm.file_by_name("b.c").unwrap();
        assert_eq!(found, id);
        assert_eq!(&*f.text, "x");
        assert!(sm.file_by_name("c.c").is_none());
    }

    #[test]
    fn crlf_lines_trimmed() {
        let f = SourceFile::new("t".into(), "ab\r\ncd\r\n".into());
        assert_eq!(f.line_text(1), "ab");
        assert_eq!(f.line_text(2), "cd");
    }

    #[test]
    fn synthetic_files_share_repeated_names_and_texts() {
        let mut sm = SourceMap::new();
        let real = sm.add_file("a.c", "#if X\n#endif\n");
        let first = sm.add_synthetic("<#if>", "X");
        let macro_body = sm.add_synthetic("<macro M>", "1 + 2");
        let again = sm.add_synthetic("<#if>", "X");
        // Every registration keeps its own id.
        assert_eq!([real.0, first.0, macro_body.0, again.0], [0, 1, 2, 3]);
        assert!(Arc::ptr_eq(&sm.file(first).name, &sm.file(again).name));
        assert!(Arc::ptr_eq(&sm.file(first).text, &sm.file(again).text));
        assert_eq!(&*sm.file(macro_body).name, "<macro M>");
        assert_eq!(sm.describe(Span::new(macro_body, 4, 5)), "<macro M>:1:5");
        assert_eq!(sm.snippet(Span::new(again, 0, 1)), "X");
    }
}
