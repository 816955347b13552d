//! # safeflow-syntax
//!
//! Frontend for the restricted C subset analyzed by SafeFlow (Kowshik, Roşu,
//! Sha — *Static Analysis to Enforce Safe Value Flow in Embedded Control
//! Systems*, DSN 2006).
//!
//! The pipeline is: [`pp::preprocess`] (includes, object macros,
//! conditionals) → [`lexer::lex`] (tokens, SafeFlow annotation comments) →
//! [`parser::parse`] (AST with attached [`annot::Annotation`]s).
//!
//! # Examples
//!
//! ```
//! use safeflow_syntax::{parse_source, ParseResult};
//!
//! let src = r#"
//!     typedef struct { float control; int status; } SHMData;
//!     SHMData *noncoreCtrl;
//!
//!     float decision(float safeControl)
//!     /** SafeFlow Annotation assume(core(noncoreCtrl, 0, sizeof(SHMData))) */
//!     {
//!         return safeControl;
//!     }
//! "#;
//! let ParseResult { unit, diags, .. } = parse_source("demo.c", src);
//! assert!(!diags.has_errors());
//! let f = unit.function("decision").unwrap();
//! assert_eq!(f.annotations.len(), 1);
//! ```

#![warn(missing_docs)]

pub mod annot;
pub mod ast;
pub mod diag;
pub mod lexer;
pub mod parser;
pub mod pp;
pub mod printer;
pub mod source;
pub mod span;
pub mod token;

pub use annot::{AnnExpr, Annotation};
pub use ast::TranslationUnit;
pub use diag::{Diagnostic, Diagnostics, Severity};
pub use pp::VirtualFs;
pub use source::SourceMap;
pub use span::{FileId, Span};

use safeflow_util::pool;

/// Everything produced by parsing one program.
#[derive(Debug)]
pub struct ParseResult {
    /// The parsed translation unit (best-effort if there were errors).
    pub unit: TranslationUnit,
    /// All source files touched (main file, includes, annotation bodies).
    pub sources: SourceMap,
    /// Diagnostics produced by the preprocessor, lexer, and parser.
    pub diags: Diagnostics,
}

impl ParseResult {
    /// Whether the parse produced a usable AST (no errors).
    pub fn is_ok(&self) -> bool {
        !self.diags.has_errors()
    }
}

/// Parses a single self-contained source string (no `#include`s outside
/// `src` itself).
///
/// This is the convenience entry point used throughout the tests and
/// examples; multi-file programs should use [`parse_program`].
pub fn parse_source(name: &str, src: &str) -> ParseResult {
    let mut fs = VirtualFs::new();
    fs.add(name, src);
    parse_program(name, &fs)
}

/// Parses `main_name` from `fs`, resolving `#include`s against `fs`.
///
/// # Examples
///
/// ```
/// use safeflow_syntax::{parse_program, VirtualFs};
///
/// let mut fs = VirtualFs::new();
/// fs.add("shm.h", "typedef struct { float v; } Data;");
/// fs.add("main.c", "#include \"shm.h\"\nData *p;");
/// let result = parse_program("main.c", &fs);
/// assert!(result.is_ok());
/// ```
pub fn parse_program(main_name: &str, fs: &VirtualFs) -> ParseResult {
    parse_program_jobs(main_name, fs, 1)
}

/// [`parse_program`] with `jobs` worker threads lexing the files of `fs`
/// in parallel: [`preprocess_program_jobs`] then [`parse_preprocessed`].
///
/// The result is byte-identical for every `jobs` value: `FileId`s are
/// assigned by registering all files of `fs` in sorted-name order before
/// any lexing happens (a pure function of the file set), and preprocessing
/// — inclusion, conditional, and macro-expansion order, and therefore
/// diagnostic order — replays sequentially over the pre-lexed token
/// streams.
pub fn parse_program_jobs(main_name: &str, fs: &VirtualFs, jobs: usize) -> ParseResult {
    parse_preprocessed(preprocess_program_jobs(main_name, fs, jobs))
}

/// A program lexed and preprocessed into one token stream, ready for
/// [`parse_preprocessed`]. The two halves of [`parse_program_jobs`] are
/// separate so that a caller can time them apart.
#[derive(Debug)]
pub struct Preprocessed {
    tokens: Vec<token::Token>,
    sources: SourceMap,
    diags: Diagnostics,
}

/// Lexes every file of `fs` on `jobs` worker threads, then preprocesses
/// `main_name` over the lexed files (see [`parse_program_jobs`]).
pub fn preprocess_program_jobs(main_name: &str, fs: &VirtualFs, jobs: usize) -> Preprocessed {
    let mut sources = SourceMap::new();
    let mut diags = Diagnostics::new();

    // Register every file up front, sorted by name, so FileIds do not
    // depend on inclusion order or worker scheduling.
    let names = fs.names();
    let ids: Vec<FileId> = names
        .iter()
        .map(|n| sources.add_file(n.to_string(), fs.get(n).unwrap_or_default().to_string()))
        .collect();

    // Lex each file on the pool. Per-file diagnostics are collected
    // separately and spliced in at the file's first inclusion, matching
    // the sequential preprocessor's emission order.
    // A lexer panic cannot degrade: re-raise the lowest-index one.
    let lexed = pool::run_map(jobs, names.len(), &pool::PoolStats::default(), |i| {
        let mut file_diags = Diagnostics::new();
        let tokens = lexer::lex(ids[i], fs.get(names[i]).unwrap_or_default(), &mut file_diags);
        let diags = if file_diags.is_empty() { None } else { Some(file_diags) };
        pp::LexedFile { tokens, diags }
    });
    let mut cache: std::collections::HashMap<String, pp::LexedFile> = names
        .iter()
        .map(|n| n.to_string())
        .zip(lexed.into_iter().map(|r| r.unwrap_or_else(|p| panic!("{}", p.message))))
        .collect();

    let tokens = pp::preprocess_with_cache(main_name, fs, &mut sources, &mut diags, &mut cache);
    Preprocessed { tokens, sources, diags }
}

/// Parses a preprocessed program into its translation unit.
pub fn parse_preprocessed(pre: Preprocessed) -> ParseResult {
    let Preprocessed { tokens, mut sources, mut diags } = pre;
    let unit = parser::parse(tokens, &mut sources, &mut diags);
    ParseResult { unit, sources, diags }
}
