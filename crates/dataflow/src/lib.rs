//! # safeflow-dataflow
//!
//! The control-flow analyses phase 3 of the paper's analysis uses to
//! propagate `unsafe` through control dependence (§3.3, §3.4.1):
//! post-dominators and the control-dependence graph built from them.
//!
//! # Examples
//!
//! ```
//! use safeflow_syntax::{parse_source, diag::Diagnostics};
//! use safeflow_ir::{build_module, Cfg};
//! use safeflow_dataflow::{ControlDeps, PostDomTree};
//!
//! let pr = parse_source("d.c", "int f(int a) { int r = 0; if (a) r = 1; return r; }");
//! let mut diags = Diagnostics::new();
//! let module = build_module(&pr.unit, &mut diags);
//! let func = module.function(module.function_by_name("f").unwrap());
//! let cfg = Cfg::build(func);
//! let cd = ControlDeps::build(func, &cfg, &PostDomTree::build(func, &cfg));
//! // The `if` in the entry block decides whether the then-arm runs.
//! let then_arm = cfg.succs_of(func.entry())[0];
//! assert!(cd.controlled_by(func.entry()).contains(&then_arm));
//! ```

#![warn(missing_docs)]

pub mod controldep;
pub mod postdom;

pub use controldep::ControlDeps;
pub use postdom::PostDomTree;
