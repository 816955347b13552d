//! # safeflow-ir
//!
//! Typed SSA intermediate representation for the SafeFlow analysis
//! (DSN 2006). Stands in for the LLVM 1.x substrate the paper used: a typed
//! CFG IR with SSA form, dominators and post-dominators, control
//! dependence, loop analysis, a call graph with SCC condensation, and
//! dense per-value fact tables for the analyses built on top.
//!
//! Pipeline: [`lower::lower`] (AST → IR) → [`ssa::promote_module`]
//! (mem2reg) → analyses ([`mod@cfg`], [`dom`], [`controldep`], [`loops`],
//! [`callgraph`]). Analyses built on the IR keep per-value results in a
//! [`facts::FuncTable`].
//!
//! # Examples
//!
//! ```
//! use safeflow_syntax::parse_source;
//! use safeflow_syntax::diag::Diagnostics;
//! use safeflow_ir::{lower::lower, ssa::promote_module, verify::verify_module};
//!
//! let pr = parse_source("demo.c", "int add(int a, int b) { return a + b; }");
//! let mut diags = Diagnostics::new();
//! let mut module = lower(&pr.unit, &mut diags);
//! promote_module(&mut module);
//! assert!(verify_module(&module).is_empty());
//! ```

#![warn(missing_docs)]

pub mod callgraph;
pub mod cfg;
pub mod controldep;
pub mod dom;
pub mod facts;
pub mod loops;
pub mod lower;
pub mod module;
pub mod print;
pub mod ssa;
pub mod types;
pub mod verify;

pub use callgraph::CallGraph;
pub use cfg::Cfg;
pub use controldep::ControlDeps;
pub use dom::{DomTree, PostDomTree};
pub use facts::FuncTable;
pub use module::{
    BasicBlock, BinOp, BlockId, Callee, CastKind, CmpOp, FuncId, Function, Global, GlobalId, Inst,
    InstId, InstKind, IrParam, Module, Terminator, Value,
};
pub use types::{FieldLayout, StructId, StructLayout, Type, TypeKind, TypeTable};

use safeflow_syntax::diag::Diagnostics;
use safeflow_syntax::TranslationUnit;

/// Convenience: lowers `unit` and promotes to SSA in one call.
pub fn build_module(unit: &TranslationUnit, diags: &mut Diagnostics) -> Module {
    let mut m = lower::lower(unit, diags);
    ssa::promote_module(&mut m);
    m
}
